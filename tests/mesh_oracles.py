"""Per-triangle reference implementations of the mesh layer.

``refine_loop`` walks the triangles one at a time with the three
newest-vertex bisection branches written out, so that the tests can
cross-check the array version in :mod:`obstacle_afem.mesh` against a
direct reading of the rules.
``diameters``, ``min_angle`` and ``shape_regularity`` measure the shape
of a mesh's triangles for the refinement invariants.
"""

import numpy as np

from obstacle_afem.mesh import Mesh


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
    node_parents = -np.ones((len(nodes), 2), dtype=np.int64)
    node_parents[n_old:] = mesh.edges[eids]

    new_tris = []
    new_refs = []
    parents = []
    tri_marked = marked_mask[mesh.tri2edge]
    for t in range(m):
        if not tri_marked[t].any():
            new_tris.append(mesh.triangles[t])
            new_refs.append(mesh.ref_edge[t])
            parents.append(t)
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
            parents.append(t)

    return Mesh(nodes, np.asarray(new_tris, dtype=np.int64),
                np.asarray(new_refs, dtype=np.int64),
                level=mesh.level + 1,
                node_parents=node_parents,
                parent_triangles=np.asarray(parents, dtype=np.int64))


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
    return float(np.max(diameters(mesh) ** 2 / mesh.areas()))
