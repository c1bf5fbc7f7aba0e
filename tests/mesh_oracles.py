"""Per-triangle reference implementations of the mesh layer.

``refine_loop`` walks the triangles one at a time with the three
newest-vertex bisection branches written out, so that the tests can
cross-check the array version in :mod:`obstacle_afem.mesh` against a
direct reading of the rules.
``father_triangles`` recovers each son's father from the bisection
history alone, so that the son counts and areas check ``refine``
without trusting its own bookkeeping.
``midpoint_prolong`` and ``vstack_prolongations`` move nodal values
between the meshes of a bisection history by vector arithmetic and by
row gathers, to cross-check the per-generation operator
:func:`obstacle_afem.fem.generation` bit for bit.
``level_prolongations`` multiplies the generations into the whole
prolongations between the kept levels, finest first, to cross-check
the row-sliced ones that each V-cycle set-up of :mod:`obstacle_afem.vi`
builds for itself.
``sliced_truncated_prolongation`` slices those rows from the whole first
generation, to cross-check the set-up's generation built for the rows
alone.
``build_edges_unique`` numbers the edges with ``np.unique`` over the
vertex pairs and a second sort for the edge-to-triangle map, to
cross-check the single-sort edge tables of :class:`obstacle_afem.mesh.Mesh`.
``edge_lengths`` measures each edge from its endpoints, the lengths
that the estimator and ``apx_indicator`` compute for themselves.
``gathered_areas`` computes the triangle areas from the (M, 3, 2) table
of vertex coordinates, to cross-check the per-coordinate areas of
:class:`obstacle_afem.mesh.Mesh`.
``boundary_polygon`` lists a domain's corners from its definition, so
that the boundary of a mesh is checked against the domain rather than
against the coarse mesh tables it was built from.
``diameters``, ``min_angle`` and ``shape_regularity`` measure the shape
of a mesh's triangles for the refinement invariants.
``row_dump_mesh`` writes the plain-text mesh format one row at a time,
each coordinate through ``float``, to check the bytes of
:func:`obstacle_afem.mesh.dump_mesh`.
"""

import numpy as np
import scipy.sparse as sp

from obstacle_afem.fem import generation
from obstacle_afem.mesh import LShape, Mesh, Square


def refine_loop(mesh, marked):
    """Newest vertex bisection of the marked edges, one triangle at a
    time; same contract as :func:`obstacle_afem.mesh.refine`."""
    marked = np.asarray(sorted(set(int(e) for e in marked)), dtype=np.int64)
    if marked.size and (marked.min() < 0 or marked.max() >= mesh.num_edges):
        raise ValueError("unknown edge id in marked set")
    if marked.size == 0:
        return mesh

    marked_mask = np.zeros(mesh.num_edges, dtype=bool)
    marked_mask[marked] = True

    # closure: marked triangle => reference edge marked
    m = mesh.num_triangles
    rows = np.arange(m)
    while True:
        tri_marked = marked_mask[mesh.tri2edge]
        need = tri_marked.any(axis=1) & ~tri_marked[rows, mesh.ref_edge]
        if not need.any():
            break
        marked_mask[mesh.tri2edge[need, mesh.ref_edge[need]]] = True

    eids = np.nonzero(marked_mask)[0]
    n_old = mesh.num_nodes
    midpoint_of = {}
    for k, eid in enumerate(eids):
        midpoint_of[eid] = n_old + k
    mid_coords = 0.5 * (mesh.nodes[mesh.edges[eids, 0]]
                        + mesh.nodes[mesh.edges[eids, 1]])
    nodes = np.vstack([mesh.nodes, mid_coords])
    node_parents = np.vstack([mesh.node_parents, mesh.edges[eids]])

    new_tris = []
    new_refs = []
    tri_marked = marked_mask[mesh.tri2edge]
    for t in range(m):
        if not tri_marked[t].any():
            new_tris.append(mesh.triangles[t])
            new_refs.append(mesh.ref_edge[t])
            continue
        rho = mesh.ref_edge[t]
        a = mesh.triangles[t, rho]
        b = mesh.triangles[t, (rho + 1) % 3]
        c = mesh.triangles[t, (rho + 2) % 3]
        e_ab = mesh.tri2edge[t, rho]
        e_bc = mesh.tri2edge[t, (rho + 1) % 3]
        e_ca = mesh.tri2edge[t, (rho + 2) % 3]
        m_ab = midpoint_of[e_ab]
        # first bisection: sons (a, m_ab, c) and (m_ab, b, c), reference
        # edges opposite the newest vertex m_ab
        if marked_mask[e_ca]:
            m_ca = midpoint_of[e_ca]
            sons = [((c, m_ca, m_ab), 2), ((m_ca, a, m_ab), 1)]
        else:
            sons = [((a, m_ab, c), 2)]
        if marked_mask[e_bc]:
            m_bc = midpoint_of[e_bc]
            sons += [((b, m_bc, m_ab), 2), ((m_bc, c, m_ab), 1)]
        else:
            sons += [((m_ab, b, c), 1)]
        for verts, ref in sons:
            new_tris.append(verts)
            new_refs.append(ref)

    return Mesh(nodes, np.asarray(new_tris, dtype=np.int64),
                np.asarray(new_refs, dtype=np.int64), node_parents,
                [*mesh.level_nodes, len(nodes)])


def father_triangles(coarse, fine):
    """Index in ``coarse`` of the father of each triangle of ``fine``,
    the mesh one bisection generation later.

    A son's father is read off the bisection history alone: the son's
    old vertices and the parent edge endpoints of its new vertices are
    exactly the three vertices of its father.
    """
    n_old = coarse.num_nodes
    if fine.level < 1 or fine.level_nodes[-2] != n_old:
        raise ValueError("fine is not one generation after coarse")
    tri = fine.triangles
    ends = np.where((tri >= n_old)[..., None], fine.node_parents[tri],
                    tri[..., None]).reshape(len(tri), 6)
    index = {frozenset(t): i for i, t in enumerate(coarse.triangles.tolist())}
    return np.array([index[frozenset(e)] for e in ends.tolist()])


def midpoint_prolong(values, fine):
    """Values on ``fine``, one bisection generation after the mesh of
    ``values``: old nodes keep theirs, a new node takes the mean of its
    parent edge's endpoint values."""
    n_old = len(values)
    if fine.level < 1 or fine.level_nodes[-2] != n_old:
        raise ValueError("values do not live on the mesh refined by fine")
    out = np.empty(fine.num_nodes)
    out[:n_old] = values
    parents = fine.node_parents[n_old:]
    out[n_old:] = 0.5 * (out[parents[:, 0]] + out[parents[:, 1]])
    return out


def level_prolongations(mesh):
    """Prolongations between the kept levels of the mesh's history, finest
    first: products of the generations in between, columns sorted.  Going
    down, a level is kept when it has at most half the nodes of the last
    kept one; level 0 always is."""
    prolongations, p = [], None
    for level in range(mesh.level, 0, -1):
        g = generation(mesh, level)
        p = g if p is None else p @ g
        if level == 1 or 2 * mesh.level_nodes[level - 1] <= p.shape[0]:
            p.sort_indices()
            prolongations.append(p)
            p = None
    return prolongations


def sliced_truncated_prolongation(mesh, level, idx):
    """Same contract as :func:`obstacle_afem.vi.truncated_prolongation`:
    the rows ``idx`` sliced from the whole first generation, then the
    products of the generations down to the next kept level."""
    p, kept = generation(mesh, level)[idx], level - 1
    while kept > 0 and 2 * mesh.level_nodes[kept] > mesh.level_nodes[level]:
        p = p @ generation(mesh, kept)
        kept -= 1
    p.sort_indices()
    return p, kept


def vstack_prolongations(mesh):
    """Same contract as :func:`level_prolongations`:
    the kept levels listed first, then each prolongation grown from the
    identity one generation at a time by stacking the mean of the parent
    rows under it."""
    counts = mesh.level_nodes
    kept = [len(counts) - 1]
    for level in range(len(counts) - 2, -1, -1):
        if level == 0 or 2 * counts[level] <= counts[kept[-1]]:
            kept.append(level)
    prolongations = []
    for fine, coarse in zip(kept, kept[1:]):
        p = sp.identity(counts[coarse], format="csr")
        for level in range(coarse + 1, fine + 1):
            parents = mesh.node_parents[counts[level - 1]:counts[level]]
            p = sp.vstack([p, 0.5 * (p[parents[:, 0]] + p[parents[:, 1]])],
                          format="csr")
        prolongations.append(p)
    return prolongations


def build_edges_unique(mesh):
    """Edge tables of a mesh as ``(edges, tri2edge, edge2tri,
    is_boundary_edge, edge_lengths)``, same contract as the attributes
    of :class:`obstacle_afem.mesh.Mesh`, its ``edge_triangles()`` and
    :func:`edge_lengths`, the index tables in the dtype of the mesh's
    triangles."""
    tri = mesh.triangles
    m = tri.shape[0]
    local = tri[:, [[0, 1], [1, 2], [2, 0]]].reshape(-1, 2)
    pairs = np.sort(local, axis=1)
    edges, inverse = np.unique(pairs, axis=0, return_inverse=True)
    tri2edge = inverse.reshape(m, 3)

    e = tri2edge.ravel()
    t = np.repeat(np.arange(m), 3)
    order = np.argsort(e, kind="stable")
    counts = np.bincount(e, minlength=len(edges))
    if counts.max(initial=0) > 2:
        raise ValueError("edge shared by more than two triangles")
    starts = np.zeros(len(edges), dtype=np.int64)
    starts[1:] = np.cumsum(counts)[:-1]
    edge2tri = -np.ones((len(edges), 2), dtype=np.int64)
    edge2tri[:, 0] = t[order][starts]
    both = counts == 2
    edge2tri[both, 1] = t[order][starts[both] + 1]
    diff = mesh.nodes[edges[:, 0]] - mesh.nodes[edges[:, 1]]
    index = mesh.triangles.dtype
    return (edges.astype(index), tri2edge.astype(index),
            edge2tri.astype(index), ~both, np.hypot(diff[:, 0], diff[:, 1]))


def edge_lengths(mesh):
    """Length of each edge of a mesh, indexed by edge id."""
    a, b = mesh.edges.T
    x, y = mesh.nodes.T
    return np.hypot(x[a] - x[b], y[a] - y[b])


def gathered_areas(mesh):
    """Triangle areas from the gathered vertex coordinates, same
    contract as ``Mesh.areas``."""
    p = mesh.nodes[mesh.triangles]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def boundary_polygon(domain):
    """Corners of the domain boundary, counterclockwise: the square
    [xmin, xmax] x [ymin, ymax], or (-w, w)^2 minus [-w, 0]^2 for the
    L-shape of half-width w."""
    if isinstance(domain, Square):
        x0, y0, x1, y1 = domain.xmin, domain.ymin, domain.xmax, domain.ymax
        return np.array([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])
    if isinstance(domain, LShape):
        w = domain.half_width
        return np.array([(0, 0), (0, -w), (w, -w), (w, w), (-w, w),
                         (-w, 0)], dtype=float)
    raise ValueError(f"unsupported domain description: {domain!r}")


def diameters(mesh):
    p = mesh.nodes[mesh.triangles]
    s0 = np.linalg.norm(p[:, 1] - p[:, 0], axis=1)
    s1 = np.linalg.norm(p[:, 2] - p[:, 1], axis=1)
    s2 = np.linalg.norm(p[:, 0] - p[:, 2], axis=1)
    return np.maximum(np.maximum(s0, s1), s2)


def min_angle(mesh):
    """Smallest interior angle over all triangles, in radians."""
    p = mesh.nodes[mesh.triangles]
    angles = []
    for i in range(3):
        u = p[:, (i + 1) % 3] - p[:, i]
        v = p[:, (i + 2) % 3] - p[:, i]
        cosa = np.einsum("ij,ij->i", u, v) / (
            np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1))
        angles.append(np.arccos(np.clip(cosa, -1.0, 1.0)))
    return float(np.min(angles))


def shape_regularity(mesh):
    """max over triangles of diam(T)^2 / |T|."""
    return float(np.max(diameters(mesh) ** 2 / mesh.areas))


def row_dump_mesh(mesh, path):
    """Same contract as :func:`obstacle_afem.mesh.dump_mesh`, one
    ``write`` per row."""
    with open(path, "w") as fh:
        fh.write(f"nodes {mesh.num_nodes} triangles {mesh.num_triangles}\n")
        for x, y in mesh.nodes:
            fh.write(f"{float(x)!r} {float(y)!r}\n")
        for (v0, v1, v2), r in zip(mesh.triangles, mesh.ref_edge):
            fh.write(f"{v0} {v1} {v2} {r}\n")
