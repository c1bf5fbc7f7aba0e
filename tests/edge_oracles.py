"""Per-edge reference formulas for the vectorized estimator.

Each function answers a question about a single edge from whole-mesh
arrays, one edge at a time, so that the tests can cross-check
``assemble_indicators`` and ``apx_indicator`` against an independent
implementation of the same formulas.  ``check_trace_continuity`` probes
a Dirichlet datum along the boundary edges of a mesh.
"""

import numpy as np

from obstacle_afem.fem import solution_gradients
from obstacle_afem.quadrature import TRI_WEIGHTS, gauss_segment, \
    triangle_points


def edge_normal(mesh, eid):
    n0, n1 = mesh.edges[eid]
    t = mesh.nodes[n1] - mesh.nodes[n0]
    n = np.array([t[1], -t[0]])
    return n / np.linalg.norm(n)


def edge_patch(mesh, eid):
    """Adjacent triangles and total area of the patch of an interior edge.

    Returns ``(t_plus, t_minus, area)``.  Raises on boundary edges.
    """
    eid = int(eid)
    if eid < 0 or eid >= mesh.num_edges:
        raise ValueError("unknown edge id")
    if mesh.is_boundary_edge[eid]:
        raise ValueError("edge_patch requires an interior edge")
    t_plus, t_minus = mesh.edge2tri[eid]
    areas = mesh.areas
    return int(t_plus), int(t_minus), float(areas[t_plus] + areas[t_minus])


def jump_indicator(mesh, values, eid):
    """eta^2(E) = h_E^2 * (jump of the normal derivative)^2.

    The jump of the constant P1 gradients is orientation independent
    after squaring.
    """
    eid = int(eid)
    if mesh.is_boundary_edge[eid]:
        raise ValueError("jump_indicator requires an interior edge")
    grads = solution_gradients(mesh, np.asarray(values, dtype=float))
    t_plus, t_minus = mesh.edge2tri[eid]
    jump = (grads[t_plus] - grads[t_minus]) @ edge_normal(mesh, eid)
    return float(mesh.edge_lengths[eid] ** 2 * jump ** 2)


def _f_at_points(mesh, f):
    pts = triangle_points(mesh)
    return np.broadcast_to(
        np.asarray(f(pts[..., 0], pts[..., 1]), dtype=float), pts.shape[:2])


def interior_osc(mesh, f, eid):
    """osc^2(E) = |patch| * ||f - mean_patch f||^2 over the edge patch."""
    eid = int(eid)
    if mesh.is_boundary_edge[eid]:
        raise ValueError("interior_osc requires an interior edge")
    fv = _f_at_points(mesh, f)
    areas = mesh.areas
    tp, tm, patch = edge_patch(mesh, eid)
    mean = (areas[tp] * (fv[tp] @ TRI_WEIGHTS)
            + areas[tm] * (fv[tm] @ TRI_WEIGHTS)) / patch
    var = (areas[tp] * ((fv[tp] - mean) ** 2 @ TRI_WEIGHTS)
           + areas[tm] * ((fv[tm] - mean) ** 2 @ TRI_WEIGHTS))
    return float(patch * var)


def boundary_residual(mesh, f, eid):
    """osc^2(E) = |T| * ||f||^2 over the unique triangle next to E."""
    eid = int(eid)
    if not mesh.is_boundary_edge[eid]:
        raise ValueError("boundary_residual requires a boundary edge")
    t = mesh.edge2tri[eid, 0]
    area = mesh.areas[t]
    return float(area * area * (_f_at_points(mesh, f)[t] ** 2 @ TRI_WEIGHTS))


def apx_indicator(mesh, g, gl, eid):
    """h_E * int_E ((g - g_l)')^2 of one boundary edge, edge by edge."""
    eid = int(eid)
    if not mesh.is_boundary_edge[eid]:
        raise ValueError("apx_indicator requires a boundary edge")
    n0, n1 = mesh.edges[eid]
    p, q = mesh.nodes[n0], mesh.nodes[n1]
    h = mesh.edge_lengths[eid]
    tangent = (q - p) / h
    slope = (gl[n1] - gl[n0]) / h
    pts, w = gauss_segment(p, q)
    gp = g.arc_derivative(pts[:, 0], pts[:, 1], tangent, h)
    return float(h * np.sum(w * (np.asarray(gp) - slope) ** 2))


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
