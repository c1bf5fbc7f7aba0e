"""Per-edge reference formulas for the vectorized estimator.

Each function answers a question about a single edge from whole-mesh
arrays, one edge at a time, so that the tests can cross-check
``assemble_indicators`` and ``apx_indicator`` against an independent
implementation of the same formulas.  ``whole_table_indicators`` is
the vectorized estimator with the jump and oscillation terms over all
interior edges at once, a bit-for-bit oracle of the blocked form.  The
oracles take the solution gradients from
:func:`tests.kernel_oracles.einsum_solution_gradients` and the edge
lengths from :func:`tests.mesh_oracles.edge_lengths`, not from the
package.
``check_trace_continuity`` probes a Dirichlet datum along the boundary
edges of a mesh.  Inside an ``exact_trace`` block the arclength
derivative of the datum is the tangential component of an analytic
gradient, for the tests whose closed forms need g' exactly.
``row_dump_indicators`` writes the indicator CSV one edge at a time,
each value through ``float``, to check the bytes of
:func:`obstacle_afem.estimator.dump_indicators`.
"""

import contextlib

import numpy as np

from obstacle_afem import boundary
from obstacle_afem.quadrature import TRI_WEIGHTS, f_at_points, \
    triangle_points
from tests.kernel_oracles import einsum_solution_gradients
from tests.mesh_oracles import edge_lengths


@contextlib.contextmanager
def exact_trace(gradient):
    """Take the arclength derivative of the Dirichlet datum as the
    tangential component of its analytic ``gradient(x, y) -> (gx, gy)``
    while the block runs, in place of ``boundary.arc_derivative``'s
    central difference."""
    original = boundary.arc_derivative

    def arc_derivative(g, x, y, tangent, h):
        tx, ty = tangent
        gx, gy = gradient(x, y)
        return np.asarray(gx) * tx + np.asarray(gy) * ty

    boundary.arc_derivative = arc_derivative
    try:
        yield
    finally:
        boundary.arc_derivative = original


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
    t_plus, t_minus = mesh.edge_triangles()[eid]
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
    grads = einsum_solution_gradients(mesh, np.asarray(values, dtype=float))
    t_plus, t_minus = mesh.edge_triangles()[eid]
    jump = (grads[t_plus] - grads[t_minus]) @ edge_normal(mesh, eid)
    return float(edge_lengths(mesh)[eid] ** 2 * jump ** 2)


def _f_at_points(mesh, f, rows):
    x, y = (c.T for c in triangle_points(mesh, rows))
    return np.broadcast_to(np.asarray(f(x, y), dtype=float), x.shape)


def interior_osc(mesh, f, eid):
    """osc^2(E) = |patch| * ||f - mean_patch f||^2 over the edge patch."""
    eid = int(eid)
    if mesh.is_boundary_edge[eid]:
        raise ValueError("interior_osc requires an interior edge")
    areas = mesh.areas
    tp, tm, patch = edge_patch(mesh, eid)
    fp, fm = _f_at_points(mesh, f, [tp, tm])
    mean = (areas[tp] * (fp @ TRI_WEIGHTS)
            + areas[tm] * (fm @ TRI_WEIGHTS)) / patch
    var = (areas[tp] * ((fp - mean) ** 2 @ TRI_WEIGHTS)
           + areas[tm] * ((fm - mean) ** 2 @ TRI_WEIGHTS))
    return float(patch * var)


def boundary_residual(mesh, f, eid):
    """osc^2(E) = |T| * ||f||^2 over the unique triangle next to E."""
    eid = int(eid)
    if not mesh.is_boundary_edge[eid]:
        raise ValueError("boundary_residual requires a boundary edge")
    t = mesh.edge_triangles()[eid, 0]
    area = mesh.areas[t]
    return float(area * area
                 * (_f_at_points(mesh, f, [t])[0] ** 2 @ TRI_WEIGHTS))


def gauss_segment(p, q):
    """5-point Gauss-Legendre points (5, 2) and weights (5,) on the
    segment p-q, the weights summing to its length."""
    x, w = np.polynomial.legendre.leggauss(5)
    mid = 0.5 * (p + q)
    half = 0.5 * (q - p)
    return mid + x[:, None] * half, w * (np.linalg.norm(q - p) / 2.0)


def apx_indicator(mesh, g, gl, eid):
    """h_E * int_E ((g - g_l)')^2 of one boundary edge, edge by edge,
    with the slope of g_l read from ``gl``, the nodal vector of
    ``interpolate_boundary``."""
    eid = int(eid)
    if not mesh.is_boundary_edge[eid]:
        raise ValueError("apx_indicator requires a boundary edge")
    n0, n1 = mesh.edges[eid]
    p, q = mesh.nodes[n0], mesh.nodes[n1]
    h = edge_lengths(mesh)[eid]
    tangent = (q - p) / h
    slope = (gl[n1] - gl[n0]) / h
    pts, w = gauss_segment(p, q)
    gp = boundary.arc_derivative(g, pts[:, 0], pts[:, 1], tangent, h)
    return float(h * np.sum(w * (np.asarray(gp) - slope) ** 2))


@np.errstate(over="ignore")
def whole_table_indicators(mesh, values, f, g):
    """``(eta2, osc2, apx2)`` of ``assemble_indicators``, computed with
    the whole (M, 7) f table and all interior edges at once."""
    values = np.asarray(values, dtype=float)
    n_edges = mesh.num_edges
    eta2 = np.zeros(n_edges)
    osc2 = np.zeros(n_edges)
    areas = mesh.areas
    fv = f_at_points(f, triangle_points(mesh, slice(None)))
    mean = fv @ TRI_WEIGHTS
    dev2 = areas * ((fv - mean[:, None]) ** 2 @ TRI_WEIGHTS)

    interior = mesh.interior_edge_ids()
    grads = einsum_solution_gradients(mesh, values)
    t = mesh.nodes[mesh.edges[interior, 1]] \
        - mesh.nodes[mesh.edges[interior, 0]]
    h = edge_lengths(mesh)[interior]
    normals = np.stack([t[:, 1], -t[:, 0]], axis=1) / h[:, None]
    triangles = mesh.edge_triangles()
    tp = triangles[interior, 0]
    tm = triangles[interior, 1]
    jump = np.einsum("ed,ed->e", grads[tp] - grads[tm], normals)
    eta2[interior] = h ** 2 * jump ** 2

    osc2[interior] = ((areas[tp] + areas[tm]) * (dev2[tp] + dev2[tm])
                      + areas[tp] * areas[tm] * (mean[tp] - mean[tm]) ** 2)

    bdry = mesh.boundary_edge_ids()
    tb = triangles[bdry, 0]
    osc2[bdry] = areas[tb] * (dev2[tb] + areas[tb] * mean[tb] ** 2)
    return eta2, osc2, boundary.apx_indicator(mesh, g)


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


def row_dump_indicators(mesh, indicators, path):
    """Same contract as :func:`obstacle_afem.estimator.dump_indicators`,
    one ``write`` per edge."""
    with open(path, "w") as fh:
        fh.write("edge_id,kind,eta2,osc2,apx2\n")
        for eid in range(mesh.num_edges):
            kind = "boundary" if mesh.is_boundary_edge[eid] else "interior"
            fh.write(f"{eid},{kind},{float(indicators.eta2[eid])!r},"
                     f"{float(indicators.osc2[eid])!r},"
                     f"{float(indicators.apx2[eid])!r}\n")
