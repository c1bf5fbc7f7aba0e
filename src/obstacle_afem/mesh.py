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

    The triangle areas ``areas`` (positive, since the vertices run
    counterclockwise) and the edge tables are computed once on
    construction.  Interior edges have exactly two adjacent triangles,
    boundary edges exactly one.
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
        p = self.nodes[self.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        self.areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        if (self.areas <= 0).any():
            raise ValueError("triangle with non-positive signed area")
        self._build_edges()

    # -- connectivity -----------------------------------------------------

    def _build_edges(self):
        m = self.num_triangles
        local = self.triangles[:, [[0, 1], [1, 2], [2, 0]]].reshape(-1, 2)
        pairs = np.sort(local, axis=1)
        # one stable sort of the key a * N + b (a < b) numbers the edges
        # lexicographically and lists each edge's triangles ascending
        key = pairs[:, 0] * self.num_nodes + pairs[:, 1]
        order = np.argsort(key, kind="stable")
        key = key[order]
        first = np.ones(3 * m, dtype=bool)
        first[1:] = key[1:] != key[:-1]
        if (~first[1:] & ~first[:-1]).any():
            raise ValueError("edge shared by more than two triangles")
        ids = np.cumsum(first) - 1
        tri2edge = np.empty(3 * m, dtype=np.int64)
        tri2edge[order] = ids
        self.tri2edge = tri2edge.reshape(m, 3)
        self.edges = edges = pairs[order[first]]
        self.edge2tri = np.full((len(edges), 2), -1, dtype=np.int64)
        self.edge2tri[:, 0] = order[first] // 3
        self.edge2tri[ids[~first], 1] = order[~first] // 3
        self.is_boundary_edge = self.edge2tri[:, 1] < 0
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

    def boundary_edge_ids(self):
        return np.nonzero(self.is_boundary_edge)[0]

    def interior_edge_ids(self):
        return np.nonzero(~self.is_boundary_edge)[0]

    def boundary_node_ids(self):
        """Ids of nodes lying on the boundary, ascending."""
        return np.unique(self.edges[self.is_boundary_edge])


def _coarse(domain):
    """Coarse nodes, counterclockwise triangles and counterclockwise
    boundary loop of a domain.  Each rectangular block is halved along
    its diagonal from the lower-left corner, local edge 2 of the first
    triangle and local edge 0 of the second."""
    if isinstance(domain, Square):
        x0, y0, x1, y1 = domain.xmin, domain.ymin, domain.xmax, domain.ymax
        if x1 <= x0 or y1 <= y0:
            raise ValueError("degenerate square domain")
        return (np.array([(x0, y0), (x1, y0), (x1, y1), (x0, y1)]),
                [(0, 1, 2), (0, 2, 3)], [0, 1, 2, 3])
    if isinstance(domain, LShape):
        w = domain.half_width
        if w <= 0:
            raise ValueError("degenerate L-shape domain")
        return (w * np.array([(0, 0), (1, 0), (1, 1), (0, 1), (-1, 0),
                              (-1, 1), (0, -1), (1, -1)], dtype=float),
                [(0, 1, 2), (0, 2, 3), (4, 0, 3), (4, 3, 5), (6, 7, 1),
                 (6, 1, 0)], [0, 6, 7, 2, 5, 4])
    raise ValueError(f"unsupported domain description: {domain!r}")


def build_initial_mesh(domain):
    """Coarsest conforming mesh of the given domain: 2 triangles on the
    square, 6 triangles on 8 nodes on the L-shape.  Each block diagonal,
    the longest edge of both its halves, is their reference edge."""
    nodes, triangles, _ = _coarse(domain)
    return Mesh(nodes, triangles, np.tile([2, 0], len(triangles) // 2))


def boundary_polygon(domain):
    """Vertex loop of the domain boundary, counterclockwise."""
    nodes, _, loop = _coarse(domain)
    return nodes[loop]


def refine(mesh, marked):
    """Bisect the marked edges and return the conforming refined mesh.

    Conformity closure: any triangle with a marked edge gets its reference
    edge marked too, iterated to a fixed point.  Marked edges are then
    split at their midpoints and every affected triangle is bisected into
    2, 3, or 4 sons following the newest-vertex rule; son reference edges
    lie opposite the newest vertex.

    An empty marked set returns the input mesh unchanged.
    """
    marked = np.unique(np.asarray(marked, dtype=np.int64))
    if marked.size == 0:
        return mesh
    if marked[0] < 0 or marked[-1] >= mesh.num_edges:
        raise ValueError("unknown edge id in marked set")

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
    midpoint = np.full(mesh.num_edges, -1, dtype=np.int64)
    midpoint[eids] = n_old + np.arange(len(eids))
    nodes = np.vstack([mesh.nodes, 0.5 * (mesh.nodes[mesh.edges[eids, 0]]
                                          + mesh.nodes[mesh.edges[eids, 1]])])
    node_parents = np.vstack([np.full((n_old, 2), -1), mesh.edges[eids]])

    # rotate every triangle (a, b, c) so that its reference edge ab is
    # local edge 0; midpoint -1 marks an edge that stays whole
    rot = (mesh.ref_edge[:, None] + np.arange(3)) % 3
    a, b, c = mesh.triangles[rows[:, None], rot].T
    m_ab, m_bc, m_ca = midpoint[mesh.tri2edge[rows[:, None], rot]].T
    split, has_ca, has_bc = m_ab >= 0, m_ca >= 0, m_bc >= 0

    # four son slots per triangle, two left and two right of m_ab (the
    # closure puts a midpoint on ab whenever ca or bc has one); an
    # unsplit triangle keeps itself in slot 0
    sons = np.stack([
        np.where(split, np.where(has_ca, [c, m_ca, m_ab], [a, m_ab, c]),
                 mesh.triangles.T),
        [m_ca, a, m_ab],
        np.where(has_bc, [b, m_bc, m_ab], [m_ab, b, c]),
        [m_bc, c, m_ab],
    ]).transpose(2, 0, 1)
    one = np.ones(m, dtype=np.int64)
    refs = np.stack([np.where(split, 2, mesh.ref_edge), one,
                     np.where(has_bc, 2, 1), one], axis=1)
    keep = np.stack([np.ones(m, dtype=bool), has_ca, split, has_bc], axis=1)

    return Mesh(nodes, sons[keep], refs[keep], level=mesh.level + 1,
                node_parents=node_parents,
                parent_triangles=np.nonzero(keep)[0])


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
