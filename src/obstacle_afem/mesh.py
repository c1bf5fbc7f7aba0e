"""Conforming triangulations and newest vertex bisection.

A mesh is an immutable triangulation of a polygonal domain.  Each triangle
carries one reference edge; refinement bisects reference edges and restores
conformity by a closure iteration, so that marked edges are always halved
and every triangle splits into 2, 3, or 4 sons.
"""

from dataclasses import dataclass

import numpy as np

from .quadrature import blocks

__all__ = [
    "Square",
    "LShape",
    "Mesh",
    "build_initial_mesh",
    "refine",
    "dump_mesh",
]


@dataclass(frozen=True)
class Square:
    """Axis-aligned square (or rectangle) domain."""

    xmin: float = 0.0
    ymin: float = 0.0
    xmax: float = 1.0
    ymax: float = 1.0

    def __post_init__(self):
        _check_coarse_mesh(self, "square")


@dataclass(frozen=True)
class LShape:
    """L-shaped domain (-2,2)^2 minus the closed quadrant [-2,0]^2.

    The reentrant corner sits at the origin with interior angle 3*pi/2.
    """

    half_width: float = 2.0

    def __post_init__(self):
        # a negative width gives a valid mesh of the L-shape turned by pi
        if not self.half_width > 0:
            raise ValueError("degenerate L-shape domain")
        _check_coarse_mesh(self, "L-shape")


def _check_coarse_mesh(domain, kind):
    """Raise ``degenerate <kind> domain`` unless the coarse mesh of
    ``domain`` is valid: finite nodes and 0 < area < inf per triangle."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            build_initial_mesh(domain)
    except (OverflowError, ValueError):
        raise ValueError(f"degenerate {kind} domain") from None


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
    node_parents : (N, 2) int array, optional
        For nodes created as edge midpoints, the ids of the parent edge
        endpoints; ``-1`` rows (all, by default) mark coarse nodes.
    level_nodes : (L + 1,) int array, optional
        Node count of each mesh in the bisection history, coarsest
        first, strictly increasing and ending with N; ``node_parents``
        holds the parent edge of every node past the first count, both
        ends nodes of the previous mesh.  Default: a one-level history
        ``[N]``.  ``level`` is L.

    The triangle areas ``areas`` (positive, since the vertices run
    counterclockwise) and the edge tables are computed once on
    construction.  Interior edges have exactly two adjacent triangles,
    boundary edges exactly one; ``edge_triangles()`` lists them.  Every
    index table (``triangles``, ``ref_edge``, ``node_parents``,
    ``tri2edge``, ``edges``) is stored as int32, so N and 3M must fit in
    int32.

    Raises ValueError for a vertex id or reference edge that is not a
    whole number (a boolean table is not: True would read as id 1) or
    lies outside [0, N) or {0, 1, 2}; tables of the wrong shape or
    length; a history whose counts do not rise strictly to N or whose
    new nodes have a parent outside the previous level; non-finite
    coordinates; an area outside (0, inf); an edge of more than two
    triangles; and two triangles that run along an edge in the same
    direction (a duplicated or overlapping triangle).
    """

    def __init__(self, nodes, triangles, ref_edge, node_parents=None,
                 level_nodes=None):
        self.nodes = np.ascontiguousarray(nodes, dtype=float)
        if self.nodes.ndim != 2 or self.nodes.shape[1] != 2:
            raise ValueError("nodes are not an (N, 2) table")
        triangles = np.asarray(triangles)
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise ValueError("triangles are not an (M, 3) table")
        if max(self.num_nodes, 3 * len(triangles)) > np.iinfo(np.int32).max:
            raise ValueError("N or 3M does not fit in int32")
        self.triangles = _whole(triangles, "vertex id", self.num_nodes,
                                "[0, N)")
        self.ref_edge = _whole(ref_edge, "reference edge", 3, "{0, 1, 2}")
        if self.ref_edge.shape != (self.num_triangles,):
            raise ValueError("reference edge table of the wrong length")
        self.node_parents = np.full((self.num_nodes, 2), -1, dtype=np.int32) \
            if node_parents is None else np.asarray(node_parents)
        self.level_nodes = np.array(
            [self.num_nodes] if level_nodes is None else level_nodes)
        self.level = len(self.level_nodes) - 1
        self._check_history()
        self.node_parents = self.node_parents.astype(np.int32, copy=False)
        if not np.isfinite(self.nodes).all():
            raise ValueError("non-finite node coordinates")
        x, y = self.nodes.T
        self.areas = np.empty(self.num_triangles)
        for s in blocks(self.num_triangles):
            # one intp copy per block: gathers by int32 cast their index
            t0, t1, t2 = self.triangles[s].T.astype(np.intp, order="C")
            self.areas[s] = 0.5 * ((x[t1] - x[t0]) * (y[t2] - y[t0])
                                   - (y[t1] - y[t0]) * (x[t2] - x[t0]))
        if not ((self.areas > 0) & (self.areas < np.inf)).all():
            raise ValueError("triangle with non-positive or infinite area")
        self._build_edges()

    def _check_history(self):
        """Raise unless ``level_nodes`` rises strictly to N, every node
        parent lies in [-1, N) and each node of generation l >= 1 has
        both parents among the nodes of l - 1."""
        counts, parents = self.level_nodes, self.node_parents
        if (counts.ndim != 1 or counts.size == 0 or counts.dtype.kind != "i"
                or (np.diff(counts, prepend=0) <= 0).any()
                or counts[-1] != self.num_nodes):
            raise ValueError("level node counts are not integers rising "
                             "strictly to N")
        if parents.shape != (self.num_nodes, 2) or parents.dtype.kind != "i":
            raise ValueError("node parents are not an integer (N, 2) table")
        if parents.min() < -1 or parents.max() >= self.num_nodes:
            raise ValueError("node parent outside [-1, N)")
        for old, new in zip(counts[:-1], counts[1:]):
            born = parents[old:new]
            if born.min() < 0 or born.max() >= old:
                raise ValueError("node parent outside the previous level")

    # -- connectivity -----------------------------------------------------

    def _build_edges(self):
        """``edges``, ``tri2edge`` and ``is_boundary_edge`` from one
        argsort of the int64 key min(a, b) * N + max(a, b) over the sides
        (a, b) of the triangles, so the edges come out sorted by (min,
        max).  The key is then sorted in place, the edge table cut from
        it and the key freed before the edge ids are built; a key that
        does not repeat is a boundary edge."""
        m, n = self.num_triangles, self.num_nodes
        tri, nxt = self.triangles, np.roll(self.triangles, -1, axis=1)
        forward = (tri < nxt).ravel()
        # int64: the key overflows int32 for N above 46340
        key = np.minimum(tri, nxt, dtype=np.int64).ravel()
        key *= n
        key += np.maximum(tri, nxt, out=nxt).ravel()
        del nxt
        # not stable: both slots of an edge get one id, in either order
        order = np.argsort(key)
        # sorted in place: the values of key[order] without a second table
        key.sort()
        first = np.ones(3 * m, dtype=bool)
        first[1:] = key[1:] != key[:-1]
        if (~first[1:] & ~first[:-1]).any():
            raise ValueError("edge shared by more than two triangles")
        # the endpoints straight into the int32 table, the key cut in place
        key = key[first]
        self.edges = np.empty((len(key), 2), dtype=np.int32)
        self.edges[:, 0] = key // n
        key %= n
        self.edges[:, 1] = key
        del key
        # the two triangles of an edge overlap unless they run opposite
        forward = forward[order]
        if (~first[1:] & (forward[1:] == forward[:-1])).any():
            raise ValueError("edge run twice in the same direction")
        del forward
        ids = np.cumsum(first, dtype=np.int32)
        ids -= 1
        tri2edge = np.empty(3 * m, dtype=np.int32)
        tri2edge[order] = ids
        self.tri2edge = tri2edge.reshape(m, 3)
        # a key that does not repeat is an edge of one triangle
        self.is_boundary_edge = np.append(first[1:], True)[first]

    def edge_triangles(self):
        """(E, 2) int32 table of the triangles of each edge: the lower id,
        then the higher one, or -1 on a boundary edge.  Built from
        ``tri2edge`` on each call, not stored: the estimator alone reads
        it."""
        table = np.empty((self.num_edges, 2), dtype=np.int32)
        table[:, 0] = self.num_triangles
        table[:, 1] = -1
        t = np.arange(self.num_triangles, dtype=np.int32)
        for col in self.tri2edge.T:
            np.minimum.at(table[:, 0], col, t)
            np.maximum.at(table[:, 1], col, t)
        table[self.is_boundary_edge, 1] = -1
        return table

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


def _whole(values, what, n, where):
    """``values`` as contiguous int32 (no copy if it is); raise unless
    each is a whole number in [0, n), checked on the given values so that
    the cast cannot wrap an id into range."""
    raw = np.asarray(values)
    if raw.dtype.kind == "b":  # True would pass as the id 1
        raise ValueError(f"{what} table of booleans")
    with np.errstate(invalid="ignore"):
        ids = raw if raw.dtype.kind in "iu" else raw.astype(np.int64)
    if ids is not raw and (ids != raw).any():
        raise ValueError(f"{what} that is not a whole number")
    if ids.min(initial=0) < 0 or ids.max(initial=0) >= n:
        raise ValueError(f"{what} outside {where}")
    return np.ascontiguousarray(ids, dtype=np.int32)


def _coarse(domain):
    """Coarse nodes and counterclockwise triangles of a domain, its one
    description.  Each rectangular block is halved along its diagonal
    from the lower-left corner, local edge 2 of the first triangle and
    local edge 0 of the second."""
    if isinstance(domain, Square):
        x0, y0, x1, y1 = domain.xmin, domain.ymin, domain.xmax, domain.ymax
        return (np.array([(x0, y0), (x1, y0), (x1, y1), (x0, y1)]),
                [(0, 1, 2), (0, 2, 3)])
    if isinstance(domain, LShape):
        w = domain.half_width
        return (w * np.array([(0, 0), (1, 0), (1, 1), (0, 1), (-1, 0),
                              (-1, 1), (0, -1), (1, -1)], dtype=float),
                [(0, 1, 2), (0, 2, 3), (4, 0, 3), (4, 3, 5), (6, 7, 1),
                 (6, 1, 0)])
    raise ValueError(f"unsupported domain description: {domain!r}")


def build_initial_mesh(domain):
    """Coarsest conforming mesh of the given domain: 2 triangles on the
    square, 6 triangles on 8 nodes on the L-shape.  Each block diagonal,
    the longest edge of both its halves, is their reference edge."""
    nodes, triangles = _coarse(domain)
    return Mesh(nodes, triangles, np.tile([2, 0], len(triangles) // 2))


def refine(mesh, marked):
    """Bisect the marked edges and return the conforming refined mesh.

    Conformity closure: any triangle with a marked edge gets its reference
    edge marked too, iterated to a fixed point.  Marked edges are then
    split at their midpoints and every affected triangle is bisected into
    2, 3, or 4 sons following the newest-vertex rule; son reference edges
    lie opposite the newest vertex.

    An empty marked set returns the input mesh unchanged.  The refined
    mesh extends the input's bisection history (``node_parents`` and
    ``level_nodes``) by one level.  Marked ids that are not integers
    (a boolean mask, floats) or not edges of the mesh raise ValueError.
    """
    marked = np.asarray(marked)
    if marked.size == 0:
        return mesh
    if marked.dtype.kind not in "iu":
        raise ValueError("marked edge ids are not integers")
    if marked.min() < 0 or marked.max() >= mesh.num_edges:
        raise ValueError("unknown edge id in marked set")

    nodes, triangles, ref_edge, node_parents = _bisect(mesh, marked)
    return Mesh(nodes, triangles, ref_edge, node_parents,
                np.append(mesh.level_nodes, len(nodes)))


def _bisect(mesh, marked):
    """The closure and the son tables of :func:`refine`: the refined
    mesh's nodes, triangles, reference edges and node parents.  Its
    temporaries die on return, before ``Mesh`` builds the edge tables."""
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
    midpoint = np.full(mesh.num_edges, -1, dtype=np.int32)
    midpoint[eids] = n_old + np.arange(len(eids))
    nodes = np.vstack([mesh.nodes, 0.5 * (mesh.nodes[mesh.edges[eids, 0]]
                                          + mesh.nodes[mesh.edges[eids, 1]])])
    node_parents = np.vstack([mesh.node_parents, mesh.edges[eids]])

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
    refs = np.ones((m, 4), dtype=np.int32)
    refs[:, 0] = np.where(split, 2, mesh.ref_edge)
    refs[:, 2] = np.where(has_bc, 2, 1)
    keep = np.stack([np.ones(m, dtype=bool), has_ca, split, has_bc], axis=1)
    return nodes, sons[keep], refs[keep], node_parents


def dump_mesh(mesh, path):
    """Write the plain-text mesh format.

    One header line ``nodes N triangles M``, then N lines ``x y``, then
    M lines ``v0 v1 v2 ref_edge``; the rows from ``tolist()``, one block
    at a time.
    """
    with open(path, "w") as fh:
        fh.write(f"nodes {mesh.num_nodes} triangles {mesh.num_triangles}\n")
        for s in blocks(mesh.num_nodes):
            fh.writelines(f"{x!r} {y!r}\n" for x, y in mesh.nodes[s].tolist())
        for s in blocks(mesh.num_triangles):
            rows = zip(mesh.triangles[s].tolist(), mesh.ref_edge[s].tolist())
            fh.writelines(f"{a} {b} {c} {r}\n" for (a, b, c), r in rows)
