"""Conforming triangulations and newest vertex bisection.

A mesh is an immutable triangulation of a polygonal domain.  Each triangle
carries one reference edge; refinement bisects reference edges and restores
conformity by a closure iteration, so that marked edges are always halved
and every triangle splits into 2, 3, or 4 sons.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Square",
    "LShape",
    "Mesh",
    "build_initial_mesh",
    "refine",
    "shape_regularity",
    "dump_mesh",
    "boundary_polygon",
]


@dataclass(frozen=True)
class Square:
    """Axis-aligned square (or rectangle) domain."""

    xmin: float = 0.0
    ymin: float = 0.0
    xmax: float = 1.0
    ymax: float = 1.0


@dataclass(frozen=True)
class LShape:
    """L-shaped domain (-2,2)^2 minus the closed quadrant [-2,0]^2.

    The reentrant corner sits at the origin with interior angle 3*pi/2.
    """

    half_width: float = 2.0


class Mesh:
    """Conforming triangle mesh with per-triangle reference edges.

    Parameters
    ----------
    nodes : (N, 2) float array
        Node coordinates.  Ids are the row indices.
    triangles : (M, 3) int array
        Vertex ids in counterclockwise order.
    ref_edge : (M,) int array
        Local index of the reference edge; local edge ``i`` connects
        vertices ``i`` and ``(i + 1) % 3``.
    level : int
        Refinement generation counter.
    node_parents : (N, 2) int array, optional
        For nodes created as edge midpoints, the ids of the parent edge
        endpoints; ``-1`` rows mark original nodes.
    parent_triangles : (M,) int array, optional
        Index of the father triangle in the previous mesh.

    Edge connectivity is rebuilt eagerly on construction.  Interior edges
    have exactly two adjacent triangles, boundary edges exactly one.
    """

    def __init__(self, nodes, triangles, ref_edge, level=0,
                 node_parents=None, parent_triangles=None):
        self.nodes = np.ascontiguousarray(nodes, dtype=float)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        self.ref_edge = np.ascontiguousarray(ref_edge, dtype=np.int64)
        self.level = int(level)
        self.node_parents = node_parents
        self.parent_triangles = parent_triangles
        if not np.isfinite(self.nodes).all():
            raise ValueError("non-finite node coordinates")
        if (self.areas() <= 0).any():
            raise ValueError("triangle with non-positive signed area")
        self._build_edges()

    # -- connectivity -----------------------------------------------------

    def _build_edges(self):
        tri = self.triangles
        m = tri.shape[0]
        local = tri[:, [[0, 1], [1, 2], [2, 0]]].reshape(-1, 2)
        pairs = np.sort(local, axis=1)
        edges, inverse = np.unique(pairs, axis=0, return_inverse=True)
        self.edges = edges
        self.tri2edge = inverse.reshape(m, 3)

        e = self.tri2edge.ravel()
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
        self.edge2tri = edge2tri
        self.is_boundary_edge = ~both
        diff = self.nodes[edges[:, 0]] - self.nodes[edges[:, 1]]
        self.edge_lengths = np.hypot(diff[:, 0], diff[:, 1])

    # -- basic quantities -------------------------------------------------

    @property
    def num_nodes(self):
        return self.nodes.shape[0]

    @property
    def num_triangles(self):
        return self.triangles.shape[0]

    @property
    def num_edges(self):
        return self.edges.shape[0]

    def areas(self):
        """Signed triangle areas, positive for counterclockwise vertices."""
        p = self.nodes[self.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def diameters(self):
        p = self.nodes[self.triangles]
        s0 = np.linalg.norm(p[:, 1] - p[:, 0], axis=1)
        s1 = np.linalg.norm(p[:, 2] - p[:, 1], axis=1)
        s2 = np.linalg.norm(p[:, 0] - p[:, 2], axis=1)
        return np.maximum(np.maximum(s0, s1), s2)

    def boundary_edge_ids(self):
        return np.nonzero(self.is_boundary_edge)[0]

    def interior_edge_ids(self):
        return np.nonzero(~self.is_boundary_edge)[0]

    def boundary_node_ids(self):
        """Ids of nodes lying on the boundary, ascending."""
        return np.unique(self.edges[self.is_boundary_edge])

    def min_angle(self):
        """Smallest interior angle over all triangles, in radians."""
        p = self.nodes[self.triangles]
        angles = []
        for i in range(3):
            u = p[:, (i + 1) % 3] - p[:, i]
            v = p[:, (i + 2) % 3] - p[:, i]
            cosa = np.einsum("ij,ij->i", u, v) / (
                np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1))
            angles.append(np.arccos(np.clip(cosa, -1.0, 1.0)))
        return float(np.min(angles))


def _longest_edge_ref(nodes, triangles):
    """Reference edge per triangle: longest edge, ties by smallest
    opposite-vertex id."""
    p = nodes[triangles]
    lengths = np.stack([
        np.linalg.norm(p[:, 1] - p[:, 0], axis=1),
        np.linalg.norm(p[:, 2] - p[:, 1], axis=1),
        np.linalg.norm(p[:, 0] - p[:, 2], axis=1),
    ], axis=1)
    ref = np.empty(triangles.shape[0], dtype=np.int64)
    for t in range(triangles.shape[0]):
        lmax = lengths[t].max()
        cands = np.nonzero(lengths[t] >= lmax * (1 - 1e-12))[0]
        # local edge i is opposite vertex (i + 2) % 3
        opp = triangles[t, (cands + 2) % 3]
        ref[t] = cands[np.argmin(opp)]
    return ref


def _square_blocks(blocks):
    """Mesh from a list of square blocks (x0, y0, x1, y1), two CCW
    triangles per block split along the (x0, y0)-(x1, y1) diagonal."""
    coords = {}
    tris = []

    def nid(x, y):
        key = (round(x, 12), round(y, 12))
        if key not in coords:
            coords[key] = len(coords)
        return coords[key]

    for x0, y0, x1, y1 in blocks:
        a = nid(x0, y0)
        b = nid(x1, y0)
        c = nid(x1, y1)
        d = nid(x0, y1)
        tris.append((a, b, c))
        tris.append((a, c, d))
    nodes = np.empty((len(coords), 2))
    for (x, y), i in coords.items():
        nodes[i] = (x, y)
    triangles = np.asarray(tris, dtype=np.int64)
    return Mesh(nodes, triangles, _longest_edge_ref(nodes, triangles))


def build_initial_mesh(domain):
    """Coarsest conforming mesh of the given domain.

    A square yields 2 triangles; the L-shape is assembled from its three
    square blocks with diagonals through the reentrant corner, yielding
    6 triangles on 8 nodes.
    """
    if isinstance(domain, Square):
        if domain.xmax <= domain.xmin or domain.ymax <= domain.ymin:
            raise ValueError("degenerate square domain")
        return _square_blocks(
            [(domain.xmin, domain.ymin, domain.xmax, domain.ymax)])
    if isinstance(domain, LShape):
        w = domain.half_width
        if w <= 0:
            raise ValueError("degenerate L-shape domain")
        return _square_blocks([
            (0.0, 0.0, w, w),
            (-w, 0.0, 0.0, w),
            (0.0, -w, w, 0.0),
        ])
    raise ValueError(f"unsupported domain description: {domain!r}")


def boundary_polygon(domain):
    """Vertex loop of the domain boundary, counterclockwise."""
    if isinstance(domain, Square):
        return np.array([
            (domain.xmin, domain.ymin), (domain.xmax, domain.ymin),
            (domain.xmax, domain.ymax), (domain.xmin, domain.ymax)])
    if isinstance(domain, LShape):
        w = domain.half_width
        return np.array([
            (0.0, 0.0), (0.0, -w), (w, -w), (w, w), (-w, w), (-w, 0.0)])
    raise ValueError(f"unsupported domain description: {domain!r}")


def refine(mesh, marked):
    """Bisect the marked edges and return the conforming refined mesh.

    Conformity closure: any triangle with a marked edge gets its reference
    edge marked too, iterated to a fixed point.  Marked edges are then
    split at their midpoints and every affected triangle is bisected into
    2, 3, or 4 sons following the newest-vertex rule; son reference edges
    lie opposite the newest vertex.

    An empty marked set returns the input mesh unchanged.
    """
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


def shape_regularity(mesh):
    """max over triangles of diam(T)^2 / |T|."""
    return float(np.max(mesh.diameters() ** 2 / mesh.areas()))


def dump_mesh(mesh, path):
    """Write the plain-text mesh format.

    One header line ``nodes N triangles M``, then N lines ``x y``, then
    M lines ``v0 v1 v2 ref_edge``.
    """
    with open(path, "w") as fh:
        fh.write(f"nodes {mesh.num_nodes} triangles {mesh.num_triangles}\n")
        for x, y in mesh.nodes:
            fh.write(f"{float(x)!r} {float(y)!r}\n")
        for (v0, v1, v2), r in zip(mesh.triangles, mesh.ref_edge):
            fh.write(f"{v0} {v1} {v2} {r}\n")
