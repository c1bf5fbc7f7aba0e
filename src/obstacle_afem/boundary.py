"""Dirichlet data, a vectorized function g(x, y): nodal interpolation and
the h-weighted oscillation indicators of the data approximation."""

import numpy as np

__all__ = [
    "interpolate_boundary",
    "apx_indicator",
]

# 5-point Gauss-Legendre rule of apx on [-1, 1], exact up to degree 9
GAUSS_POINTS, GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(5)


def arc_derivative(g, x, y, tangent, h):
    """Arclength derivative of g at points on straight edges: a central
    difference with step ``min(0.04 * h, 6e-6)``, about the cube root of
    machine epsilon and short enough to keep each Gauss point's stencil on
    the edge.  ``tangent`` is the pair (tx, ty) of unit-tangent components
    and ``h`` the edge length, each broadcastable against ``x``."""
    tx, ty = tangent
    step = np.minimum(0.04 * h, 6e-6)
    fwd = g(x + step * tx, y + step * ty)
    bwd = g(x - step * tx, y - step * ty)
    return (np.asarray(fwd) - np.asarray(bwd)) / (2.0 * step)


def interpolate_boundary(g, mesh):
    """Nodal interpolant g_l of g as a vector over all nodes of the mesh:
    g at the boundary nodes, NaN at the interior nodes."""
    ids = mesh.boundary_node_ids()
    gl = np.full(mesh.num_nodes, np.nan)
    gl[ids] = g(mesh.nodes[ids, 0], mesh.nodes[ids, 1])
    if not np.isfinite(gl[ids]).all():
        raise ValueError("Dirichlet data g is not finite at a boundary node")
    return gl


def apx_indicator(mesh, g):
    """Dirichlet oscillation h_E * int_E ((g - g_l)')^2 of each boundary
    edge E, as an array over all edges that is 0 on the interior ones.

    g_l interpolates g at the nodes, so its slope on E is the difference
    of g at E's two ends over the edge length; g' is
    :func:`arc_derivative` at the Gauss points along each edge.
    """
    eid = mesh.boundary_edge_ids()
    n0, n1 = mesh.edges[eid, 0], mesh.edges[eid, 1]
    p, q = mesh.nodes[n0], mesh.nodes[n1]
    d = q - p
    h = np.hypot(d[:, 0], d[:, 1])
    tangent = d / h[:, None]
    g0, g1 = (np.asarray(g(mesh.nodes[n, 0], mesh.nodes[n, 1]), dtype=float)
              for n in (n0, n1))
    slope = (g1 - g0) / h
    pts = 0.5 * (p + q)[:, None] + GAUSS_POINTS[:, None] * (0.5 * d)[:, None]
    gp = arc_derivative(g, pts[..., 0], pts[..., 1],
                        (tangent[:, 0, None], tangent[:, 1, None]),
                        h[:, None])
    w = GAUSS_WEIGHTS * (h[:, None] / 2.0)
    apx = np.zeros(mesh.num_edges)
    apx[eid] = h * np.sum(w * (np.asarray(gp) - slope[:, None]) ** 2, axis=-1)
    return apx
