"""Dirichlet boundary data: traces, nodal interpolation, and the
h-weighted oscillation indicators of the data approximation."""

import numpy as np

from .quadrature import gauss_segment

__all__ = [
    "BoundaryTrace",
    "DiscreteTrace",
    "interpolate_boundary",
    "apx_indicator",
    "check_trace_continuity",
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


class DiscreteTrace:
    """Nodal values of the interpolated boundary datum on a mesh."""

    def __init__(self, mesh, node_ids, values):
        self.mesh = mesh
        self.node_ids = np.asarray(node_ids, dtype=np.int64)
        self.values = np.asarray(values, dtype=float)
        self._by_node = np.full(mesh.num_nodes, np.nan)
        self._by_node[self.node_ids] = self.values

    def value_at(self, node_id):
        v = self._by_node[node_id]
        if np.any(np.isnan(v)):
            raise ValueError("node is not a boundary node")
        return v


def interpolate_boundary(g, mesh):
    """Nodal interpolant of g at the boundary nodes of the mesh."""
    ids = mesh.boundary_node_ids()
    x, y = mesh.nodes[ids, 0], mesh.nodes[ids, 1]
    values = np.broadcast_to(np.asarray(g(x, y), dtype=float), ids.shape)
    return DiscreteTrace(mesh, ids, values.copy())


def apx_indicator(g, gl, eid, n_quad=5):
    """Dirichlet oscillation h_E * int_E ((g - g_l)')^2 of boundary edges.

    ``eid`` is one edge id (returns a float) or an array of ids (returns
    an array of the same shape).  The interpolant slope is the endpoint
    difference over the edge length; g' is evaluated at Gauss points
    along each edge.
    """
    mesh = gl.mesh
    scalar = np.ndim(eid) == 0
    eid = np.asarray(eid, dtype=np.int64)
    if not mesh.is_boundary_edge[eid].all():
        raise ValueError("apx_indicator requires a boundary edge")
    n0, n1 = mesh.edges[eid, 0], mesh.edges[eid, 1]
    p, q = mesh.nodes[n0], mesh.nodes[n1]
    h = mesh.edge_lengths[eid]
    tangent = (q - p) / h[..., None]
    slope = (gl.value_at(n1) - gl.value_at(n0)) / h
    pts, w = gauss_segment(p, q, n_quad)
    gp = g.arc_derivative(pts[..., 0], pts[..., 1],
                          (tangent[..., 0, None], tangent[..., 1, None]),
                          h[..., None])
    apx = h * np.sum(w * (np.asarray(gp) - slope[..., None]) ** 2, axis=-1)
    return float(apx) if scalar else apx


def check_trace_continuity(g, mesh, tol=1e-10, delta=1e-7):
    """Largest two-sided evaluation mismatch of g at boundary nodes.

    At each boundary node the trace is approached along each adjacent
    boundary edge and linearly extrapolated to the node; the defect is the
    spread of those one-sided limits.  Raises if any defect exceeds
    ``tol`` (relative to the data scale).
    """
    limits = {}
    scale = 1.0
    for eid in mesh.boundary_edge_ids():
        n0, n1 = mesh.edges[eid]
        p, q = mesh.nodes[n0], mesh.nodes[n1]
        for node, other in ((n0, q), (n1, p)):
            z = mesh.nodes[node]
            d = delta * (other - z)
            v1 = float(np.asarray(g(z[0] + d[0], z[1] + d[1])))
            v2 = float(np.asarray(g(z[0] + 2 * d[0], z[1] + 2 * d[1])))
            limit = 2 * v1 - v2  # linear extrapolation to the node
            limits.setdefault(int(node), []).append(limit)
            scale = max(scale, abs(v1))
    worst = max(max(vals) - min(vals) for vals in limits.values())
    if worst > tol * scale:
        raise ValueError("boundary trace discontinuous at a node")
    return worst
