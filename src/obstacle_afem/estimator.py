"""Residual a posteriori error estimator.

Edge-based bookkeeping: normal-jump terms and interior data oscillations
on interior edges, weighted element residuals and Dirichlet oscillations
on boundary edges.
"""

from dataclasses import dataclass

import numpy as np

from .boundary import apx_indicator
from .fem import solution_gradients
from .quadrature import TRI_WEIGHTS, triangle_points

__all__ = ["IndicatorSet", "assemble_indicators", "dump_indicators"]


@dataclass
class IndicatorSet:
    """Per-edge squared indicators with totals.

    Arrays are indexed by edge id; ``eta2`` vanishes on boundary edges and
    ``apx2`` on interior ones.
    """

    mesh: object
    eta2: np.ndarray
    osc2: np.ndarray
    apx2: np.ndarray

    @property
    def contributions(self):
        """Per-edge Doerfler contribution: eta^2 + osc^2 interior,
        apx^2 + osc^2 on the boundary."""
        return self.eta2 + self.osc2 + self.apx2

    @property
    def rho2(self):
        return float(np.sum(self.contributions))

    @property
    def rho(self):
        return float(np.sqrt(self.rho2))

    @property
    def apx2_total(self):
        return float(np.sum(self.apx2))

    @property
    def rho_tilde2(self):
        """Total without the Dirichlet oscillation terms."""
        return self.rho2 - self.apx2_total

    @property
    def rho_tilde(self):
        return float(np.sqrt(max(0.0, self.rho_tilde2)))


def _triangle_f_moments(mesh, f):
    """Order-5 integrals of f and f^2 per triangle, plus raw point data."""
    pts = triangle_points(mesh)
    fv = np.broadcast_to(
        np.asarray(f(pts[..., 0], pts[..., 1]), dtype=float), pts.shape[:2])
    int_f = mesh.areas * (fv @ TRI_WEIGHTS)
    # an overflow to inf reaches the loop as a non-finite estimator
    with np.errstate(over="ignore"):
        int_f2 = mesh.areas * ((fv ** 2) @ TRI_WEIGHTS)
    return fv, int_f, int_f2


def assemble_indicators(mesh, values, f, g, gl):
    """Complete indicator set for a discrete solution, vectorized over
    edges."""
    values = np.asarray(values, dtype=float)
    n_edges = mesh.num_edges
    eta2 = np.zeros(n_edges)
    osc2 = np.zeros(n_edges)
    apx2 = np.zeros(n_edges)
    fv, int_f, int_f2 = _triangle_f_moments(mesh, f)
    areas = mesh.areas

    interior = mesh.interior_edge_ids()
    grads = solution_gradients(mesh, values)
    t = mesh.nodes[mesh.edges[interior, 1]] \
        - mesh.nodes[mesh.edges[interior, 0]]
    h = mesh.edge_lengths[interior]
    normals = np.stack([t[:, 1], -t[:, 0]], axis=1) / h[:, None]
    tp = mesh.edge2tri[interior, 0]
    tm = mesh.edge2tri[interior, 1]
    jump = np.einsum("ed,ed->e", grads[tp] - grads[tm], normals)
    eta2[interior] = h ** 2 * jump ** 2

    patch = areas[tp] + areas[tm]
    mean = (int_f[tp] + int_f[tm]) / patch
    var = (areas[tp] * ((fv[tp] - mean[:, None]) ** 2 @ TRI_WEIGHTS)
           + areas[tm] * ((fv[tm] - mean[:, None]) ** 2 @ TRI_WEIGHTS))
    osc2[interior] = patch * var

    bdry = mesh.boundary_edge_ids()
    tb = mesh.edge2tri[bdry, 0]
    osc2[bdry] = areas[tb] * int_f2[tb]
    apx2[bdry] = apx_indicator(mesh, g, gl, bdry)

    return IndicatorSet(mesh=mesh, eta2=eta2, osc2=osc2, apx2=apx2)


def dump_indicators(indicators, path):
    """CSV dump: edge_id,kind,eta2,osc2,apx2."""
    mesh = indicators.mesh
    with open(path, "w") as fh:
        fh.write("edge_id,kind,eta2,osc2,apx2\n")
        for eid in range(mesh.num_edges):
            kind = "boundary" if mesh.is_boundary_edge[eid] else "interior"
            fh.write(f"{eid},{kind},{float(indicators.eta2[eid])!r},"
                     f"{float(indicators.osc2[eid])!r},"
                     f"{float(indicators.apx2[eid])!r}\n")
