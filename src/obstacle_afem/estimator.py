"""Residual a posteriori error estimator.

Edge-based bookkeeping: normal-jump terms and interior data oscillations
on interior edges, weighted element residuals and Dirichlet oscillations
on boundary edges.  Two blocked passes: over triangles, keeping the mean
mu_T of f and V_T = ||f - mu_T||^2 on T; then over interior edges, each
block measuring its edges from their endpoints, so that no table over all
interior edges is held besides the outputs.  The patch oscillation
|w| ||f - f_w||^2 of w = T_a + T_b is (|T_a| + |T_b|) (V_a + V_b)
+ |T_a| |T_b| (mu_a - mu_b)^2, the pairwise variance update of Chan,
Golub and LeVeque, and the boundary term |T| ||f||^2 on T is
|T| (V_T + |T| mu_T^2): no term is negative, so nothing cancels.
"""

from dataclasses import dataclass

import numpy as np

from .boundary import apx_indicator
from .fem import solution_gradients
from .quadrature import TRI_WEIGHTS, blocks, f_at_points, triangle_points

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
    def rho_tilde(self):
        """Estimator without the Dirichlet oscillation terms."""
        return float(np.sqrt(max(0.0, self.rho2 - self.apx2_total)))


# an overflow to inf reaches the loop as a non-finite estimator
@np.errstate(over="ignore")
def assemble_indicators(mesh, values, f, g):
    """Complete indicator set for a discrete solution, in the module's
    two blocked passes."""
    values = np.asarray(values, dtype=float)
    eta2, osc2 = np.zeros((2, mesh.num_edges))
    areas = mesh.areas
    mean, dev2 = np.empty((2, mesh.num_triangles))
    for s in blocks(mesh.num_triangles):
        fv = f_at_points(f, triangle_points(mesh, s))
        mean[s] = fv @ TRI_WEIGHTS
        dev2[s] = areas[s] * ((fv - mean[s, None]) ** 2 @ TRI_WEIGHTS)
    grads = solution_gradients(mesh, values)

    triangles = mesh.edge_triangles()
    interior = mesh.interior_edge_ids()
    for s in blocks(len(interior)):
        e = interior[s]
        a, b = triangles[e].T
        t = mesh.nodes[mesh.edges[e, 1]] - mesh.nodes[mesh.edges[e, 0]]
        h = np.hypot(t[:, 0], t[:, 1])
        normals = np.stack([t[:, 1], -t[:, 0]], axis=1) / h[:, None]
        jump = np.einsum("ed,ed->e", grads[a] - grads[b], normals)
        eta2[e] = h ** 2 * jump ** 2
        osc2[e] = ((areas[a] + areas[b]) * (dev2[a] + dev2[b])
                   + areas[a] * areas[b] * (mean[a] - mean[b]) ** 2)

    bdry = mesh.boundary_edge_ids()
    tb = triangles[bdry, 0]
    osc2[bdry] = areas[tb] * (dev2[tb] + areas[tb] * mean[tb] ** 2)

    return IndicatorSet(mesh, eta2, osc2, apx_indicator(mesh, g))


def dump_indicators(indicators, path):
    """CSV dump: edge_id,kind,eta2,osc2,apx2; the rows from ``tolist()``,
    one block of edges at a time."""
    mesh, kinds = indicators.mesh, ("interior", "boundary")
    with open(path, "w") as fh:
        fh.write("edge_id,kind,eta2,osc2,apx2\n")
        for s in blocks(mesh.num_edges):
            rows = zip(range(s.start, s.stop),
                       *(a[s].tolist() for a in (
                           mesh.is_boundary_edge, indicators.eta2,
                           indicators.osc2, indicators.apx2)))
            fh.writelines(f"{e},{kinds[b]},{eta2!r},{osc2!r},{apx2!r}\n"
                          for e, b, eta2, osc2, apx2 in rows)
