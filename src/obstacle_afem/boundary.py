"""Dirichlet boundary data: traces, nodal interpolation, and the
h-weighted oscillation indicators of the data approximation."""

import numpy as np

from .quadrature import gauss_segment

__all__ = [
    "BoundaryTrace",
    "interpolate_boundary",
    "apx_indicator",
]


class BoundaryTrace:
    """Dirichlet datum g as an evaluable function on the boundary.

    Parameters
    ----------
    value : callable
        ``value(x, y)`` evaluable at boundary points, vectorized.
    gradient : callable, optional
        ``gradient(x, y) -> (gx, gy)``.  When supplied, arclength
        derivatives are computed analytically as the tangential component;
        otherwise a central finite difference with step ``h * 1e-6`` along
        the edge is used.
    """

    def __init__(self, value, gradient=None):
        self._value = value
        self._gradient = gradient

    def __call__(self, x, y):
        return self._value(x, y)

    def arc_derivative(self, x, y, tangent, h):
        """Arclength derivative at points on straight edges.

        ``tangent`` is the pair (tx, ty) of unit-tangent components and
        ``h`` the edge length (sets the finite-difference step in the
        fallback), each broadcastable against ``x``.
        """
        tx, ty = tangent
        if self._gradient is not None:
            gx, gy = self._gradient(x, y)
            return np.asarray(gx) * tx + np.asarray(gy) * ty
        step = h * 1e-6
        fwd = self._value(x + step * tx, y + step * ty)
        bwd = self._value(x - step * tx, y - step * ty)
        return (np.asarray(fwd) - np.asarray(bwd)) / (2.0 * step)

    def shifted(self, other_value, other_gradient=None):
        """Trace of ``g - chi`` given the obstacle's value/gradient."""
        def value(x, y):
            return self._value(x, y) - other_value(x, y)

        gradient = None
        if self._gradient is not None and other_gradient is not None:
            def gradient(x, y):
                gx, gy = self._gradient(x, y)
                ox, oy = other_gradient(x, y)
                return np.asarray(gx) - np.asarray(ox), \
                    np.asarray(gy) - np.asarray(oy)
        return BoundaryTrace(value, gradient)


def interpolate_boundary(g, mesh):
    """Nodal interpolant g_l of g as a vector over all nodes of the mesh:
    g at the boundary nodes, NaN at the interior nodes."""
    ids = mesh.boundary_node_ids()
    x, y = mesh.nodes[ids, 0], mesh.nodes[ids, 1]
    values = np.broadcast_to(np.asarray(g(x, y), dtype=float), ids.shape)
    if not np.isfinite(values).all():
        raise ValueError("Dirichlet data g is not finite at a boundary node")
    gl = np.full(mesh.num_nodes, np.nan)
    gl[ids] = values
    return gl


def apx_indicator(mesh, g, gl, eid):
    """Dirichlet oscillation h_E * int_E ((g - g_l)')^2 of boundary edges.

    ``gl`` is the nodal vector of :func:`interpolate_boundary`; ``eid`` is
    one edge id or an array of ids, and the result has its shape.  The
    interpolant slope is the endpoint difference over the edge length;
    g' is evaluated at Gauss points along each edge.
    """
    eid = np.asarray(eid, dtype=np.int64)
    if not mesh.is_boundary_edge[eid].all():
        raise ValueError("apx_indicator requires a boundary edge")
    n0, n1 = mesh.edges[eid, 0], mesh.edges[eid, 1]
    p, q = mesh.nodes[n0], mesh.nodes[n1]
    h = mesh.edge_lengths[eid]
    tangent = (q - p) / h[..., None]
    slope = (gl[n1] - gl[n0]) / h
    pts, w = gauss_segment(p, q)
    gp = g.arc_derivative(pts[..., 0], pts[..., 1],
                          (tangent[..., 0, None], tangent[..., 1, None]),
                          h[..., None])
    return h * np.sum(w * (np.asarray(gp) - slope[..., None]) ** 2, axis=-1)
