import collections

import numpy as np
import pytest

from obstacle_afem import (LShape, Mesh, Square, build_initial_mesh,
                           dump_mesh, quadrature, refine)
from tests.conftest import random_refined_mesh
from tests.edge_oracles import edge_patch
from tests.mesh_oracles import (boundary_polygon, build_edges_unique,
                                edge_lengths, father_triangles,
                                gathered_areas, min_angle, refine_loop,
                                row_dump_mesh, shape_regularity)


def test_initial_square_counts():
    mesh = build_initial_mesh(Square(-1.5, -1.5, 1.5, 1.5))
    assert mesh.num_nodes == 4
    assert mesh.num_triangles == 2
    assert mesh.num_edges == 5
    assert np.isclose(mesh.areas.sum(), 9.0)
    assert (mesh.areas > 0).all()


def test_initial_lshape_counts():
    mesh = build_initial_mesh(LShape())
    assert mesh.num_nodes == 8
    assert mesh.num_triangles == 6
    assert np.isclose(mesh.areas.sum(), 12.0)


def test_degenerate_domains_rejected():
    with pytest.raises(ValueError):
        build_initial_mesh(Square(0.0, 0.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        build_initial_mesh(LShape(half_width=0.0))
    with pytest.raises(ValueError):
        build_initial_mesh("pentagon")


def test_reference_edge_is_longest():
    mesh = build_initial_mesh(Square(0.0, 0.0, 1.0, 1.0))
    for t in range(mesh.num_triangles):
        lengths = edge_lengths(mesh)[mesh.tri2edge[t]]
        assert np.isclose(lengths[mesh.ref_edge[t]], lengths.max())
        # both reference edges are the diagonal
        assert np.isclose(lengths[mesh.ref_edge[t]], np.sqrt(2.0))


def test_refine_empty_marked_is_identity(unit_square_mesh):
    assert refine(unit_square_mesh, []) is unit_square_mesh


def test_refine_unknown_edge_rejected(unit_square_mesh):
    with pytest.raises(ValueError):
        refine(unit_square_mesh, [unit_square_mesh.num_edges])
    with pytest.raises(ValueError):
        refine(unit_square_mesh, [0, -1])


def test_refine_rejects_marked_ids_that_are_not_integers(unit_square_mesh):
    # a boolean mask or floats would be read as edge ids 0/1 or truncated
    mesh = unit_square_mesh
    mask = np.zeros(mesh.num_edges, dtype=bool)
    mask[[2, 4]] = True
    for marked in (mask, [2.0], np.array([2.9])):
        with pytest.raises(ValueError, match="not integers"):
            refine(mesh, marked)
    unsigned = refine(mesh, np.array([2], dtype=np.uint8))
    assert np.array_equal(unsigned.triangles, refine(mesh, [2]).triangles)


def test_refine_diagonal_gives_four_quarters(unit_square_mesh):
    mesh = unit_square_mesh
    diag = [e for e in range(mesh.num_edges)
            if not mesh.is_boundary_edge[e]][0]
    fine = refine(mesh, [diag])
    assert fine.num_triangles == 4
    assert np.allclose(fine.areas, 0.25)
    assert fine.num_nodes == 5


def test_closure_forces_reference_edge_split(unit_square_mesh):
    # marking a boundary (non-reference) edge forces the diagonal too:
    # its triangle gets 3 sons, the neighbor 2
    mesh = unit_square_mesh
    bdry = mesh.boundary_edge_ids()[0]
    fine = refine(mesh, [bdry])
    counts = collections.Counter(father_triangles(mesh, fine).tolist())
    assert sorted(counts.values()) == [2, 3]
    assert np.isclose(fine.areas.sum(), 1.0)


def test_marked_edges_are_halved(unit_square_mesh):
    mesh = refine(unit_square_mesh,
                  np.arange(unit_square_mesh.num_edges))
    marked = [0, 3, 7]
    fine = refine(mesh, marked)
    parent_pairs = {tuple(sorted(p))
                    for p in fine.node_parents[mesh.num_nodes:]}
    for e in marked:
        n0, n1 = sorted(mesh.edges[e])
        assert (n0, n1) in parent_pairs
        # the midpoint sits at the edge center
        mid = np.nonzero((fine.node_parents[:, 0] == min(n0, n1))
                         & (fine.node_parents[:, 1] == max(n0, n1)))[0]
        assert np.allclose(fine.nodes[mid[0]],
                           0.5 * (mesh.nodes[n0] + mesh.nodes[n1]))


def _assert_refine_matches_loop(mesh, marked):
    fine = refine(mesh, marked)
    ref = refine_loop(mesh, marked)
    for name in ("triangles", "ref_edge", "nodes", "node_parents",
                 "level_nodes"):
        assert np.array_equal(getattr(fine, name), getattr(ref, name)), name
    assert fine.level == ref.level == mesh.level + 1
    return fine


def _criterion8_sequence(step):
    """Criterion 8's random sequence of 1000 refines, which restarts on
    both domains; ``step(mesh, marked)`` returns the refined mesh."""
    rng = np.random.default_rng(2024)
    bases = (build_initial_mesh(Square(-1.5, -1.5, 1.5, 1.5)),
             build_initial_mesh(LShape()))
    mesh = bases[0]
    restarts = set()
    for _ in range(1000):
        if mesh.num_triangles > 1500:
            mesh = bases[0] if rng.random() < 0.5 else bases[1]
            restarts.add(mesh.num_nodes)
        k = int(rng.integers(1, max(2, mesh.num_edges // 4)))
        marked = rng.choice(mesh.num_edges, size=min(k, mesh.num_edges),
                            replace=False)
        mesh = step(mesh, marked)
    assert restarts == {4, 8}


def test_refine_matches_loop_oracle(unit_square_mesh, lshape_mesh):
    _criterion8_sequence(_assert_refine_matches_loop)

    mesh = lshape_mesh
    for _ in range(3):
        mesh = _assert_refine_matches_loop(mesh, np.arange(mesh.num_edges))

    # closure only: one boundary edge forces the diagonal
    _assert_refine_matches_loop(unit_square_mesh,
                                [unit_square_mesh.boundary_edge_ids()[0]])
    # a plain list with duplicates, out of order
    _assert_refine_matches_loop(lshape_mesh, [7, 2, 7, 0, 2, 11])


def _assert_edges_match_unique_oracle(mesh):
    names = ("edges", "tri2edge", "edge_triangles", "is_boundary_edge",
             "edge_lengths", "areas")
    refs = (*build_edges_unique(mesh), gathered_areas(mesh))
    computed = {"edge_lengths": edge_lengths(mesh),
                "edge_triangles": mesh.edge_triangles()}
    for name, ref in zip(names, refs):
        got = computed[name] if name in computed else getattr(mesh, name)
        assert got.dtype == ref.dtype, name
        assert np.array_equal(got, ref), name


def test_edge_tables_match_unique_oracle():
    def step(mesh, marked):
        fine = refine(mesh, marked)
        _assert_edges_match_unique_oracle(fine)
        return fine

    _assert_edges_match_unique_oracle(
        build_initial_mesh(Square(-1.5, -1.5, 1.5, 1.5)))
    _criterion8_sequence(step)
    for width in (2.0, 0.75, 1 / 3):
        mesh = build_initial_mesh(LShape(width))
        for _ in range(6):
            _assert_edges_match_unique_oracle(mesh)
            mesh = refine(mesh, np.arange(mesh.num_edges))
        _assert_edges_match_unique_oracle(mesh)


def test_three_triangles_on_one_edge_are_rejected():
    nodes = [(0, 0), (1, 0), (0, 1), (0, -1), (0.5, 1)]
    triangles = [(0, 1, 2), (1, 0, 3), (0, 1, 4)]
    with pytest.raises(ValueError, match="more than two triangles"):
        Mesh(nodes, triangles, np.zeros(3))


def test_coarse_nodes_keep_the_exact_bounds():
    domain = Square(0.0, 0.0, 1 / 3, 1.0)
    mesh = build_initial_mesh(domain)
    assert np.array_equal(mesh.nodes, boundary_polygon(domain))
    assert mesh.nodes[1, 0] == 1 / 3


def test_son_area_bounds(unit_square_mesh):
    rng = np.random.default_rng(5)
    mesh = unit_square_mesh
    for _ in range(20):
        if mesh.num_triangles > 2000:
            mesh = unit_square_mesh
        k = int(rng.integers(1, mesh.num_edges))
        marked = rng.choice(mesh.num_edges, size=k, replace=False)
        fine = refine(mesh, marked)
        fathers = father_triangles(mesh, fine)
        counts = collections.Counter(fathers.tolist())
        pa = mesh.areas[fathers]
        fa = fine.areas
        split = np.array([counts[t] > 1 for t in fathers])
        assert (fa[split] >= pa[split] / 4 - 1e-13).all()
        assert (fa[split] <= pa[split] / 2 + 1e-13).all()
        assert np.array([counts[t] for t in counts]).max() <= 4
        mesh = fine


def test_shape_regularity_values():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tri = Mesh(nodes, np.array([[0, 1, 2]]), np.array([1]))
    assert np.isclose(shape_regularity(tri), 4.0)
    eq = Mesh(np.array([[0.0, 0.0], [1.0, 0.0],
                        [0.5, np.sqrt(3) / 2]]),
              np.array([[0, 1, 2]]), np.array([0]))
    assert np.isclose(shape_regularity(eq), 4.0 / np.sqrt(3.0))


def test_shape_regularity_invariant_under_uniform_refinement(lshape_mesh):
    sigma0 = shape_regularity(lshape_mesh)
    fine = refine(lshape_mesh, np.arange(lshape_mesh.num_edges))
    assert np.isclose(shape_regularity(fine), sigma0)


def test_min_angle_never_degrades_below_two_sweep_bound():
    base = build_initial_mesh(Square(0.0, 0.0, 1.0, 1.0))
    two = refine(refine(base, np.arange(base.num_edges)),
                 np.arange(refine(base, np.arange(base.num_edges)).num_edges))
    bound = min_angle(two)
    rng = np.random.default_rng(11)
    mesh = base
    for _ in range(40):
        k = int(rng.integers(1, max(2, mesh.num_edges // 4)))
        marked = rng.choice(mesh.num_edges, size=min(k, mesh.num_edges),
                            replace=False)
        mesh = refine(mesh, marked)
        assert min_angle(mesh) >= bound - 1e-12
        if mesh.num_triangles > 800:
            mesh = base


def test_nestedness_of_nodes(unit_square_mesh):
    fine = refine(unit_square_mesh, [0, 2])
    n = unit_square_mesh.num_nodes
    assert np.array_equal(fine.nodes[:n], unit_square_mesh.nodes)
    assert fine.level == unit_square_mesh.level + 1


def test_edge_patch(unit_square_mesh):
    mesh = unit_square_mesh
    diag = mesh.interior_edge_ids()[0]
    tp, tm, area = edge_patch(mesh, diag)
    assert {tp, tm} == {0, 1}
    assert np.isclose(area, 1.0)
    with pytest.raises(ValueError):
        edge_patch(mesh, mesh.boundary_edge_ids()[0])
    with pytest.raises(ValueError):
        edge_patch(mesh, mesh.num_edges)


def test_nonconforming_input_rejected():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0],
                      [2.0, 0.5]])
    tris = np.array([[0, 1, 2], [1, 3, 2], [1, 4, 3], [1, 4, 2]])
    with pytest.raises(ValueError):
        Mesh(nodes, tris, np.zeros(4, dtype=int))


def test_vertex_ids_outside_the_nodes_rejected():
    # -1 would be read as the last node, N would fail as an IndexError
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    for bad in (-1, 4):
        with pytest.raises(ValueError, match=r"vertex id outside \[0, N\)"):
            Mesh(nodes, [[0, 1, 2], [0, 2, bad]], [2, 0])


def test_reference_edges_outside_the_triangle_rejected():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    for bad in (-1, 3, 5):
        with pytest.raises(ValueError, match="reference edge outside"):
            Mesh(nodes, [[0, 1, 2], [0, 2, 3]], [2, bad])


def test_ids_that_are_not_whole_numbers_rejected():
    # the int64 cast would read 1.7 as vertex 1 and 2.9 as edge 2
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="vertex id that is not a whole"):
        Mesh(nodes, [[0, 1.7, 2], [0, 2, 3]], [2, 0])
    for bad in (2.9, np.nan, np.inf):
        with pytest.raises(ValueError, match="reference edge that is not"):
            Mesh(nodes, [[0, 1, 2], [0, 2, 3]], [bad, 0])


def test_whole_number_tables_accepted_and_int32_not_copied():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 2, 3]], dtype=np.int32)
    ref = np.array([2, 0], dtype=np.int32)
    for dtype in (float, np.int64, np.uint8):
        mesh = Mesh(nodes, tris.astype(dtype), ref.astype(dtype))
        assert np.array_equal(mesh.triangles, tris)
        assert mesh.triangles.dtype == mesh.ref_edge.dtype == np.int32
    parents = np.full((4, 2), -1, dtype=np.int32)
    mesh = Mesh(nodes, tris, ref, parents)
    assert mesh.triangles is tris and mesh.ref_edge is ref
    assert mesh.node_parents is parents


def test_boolean_tables_rejected():
    # True == 1 would pass the whole-number check as vertex or edge id 1
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="reference edge table of booleans"):
        Mesh(nodes, [[0, 1, 2], [0, 2, 3]], np.array([True, False]))
    with pytest.raises(ValueError, match="vertex id table of booleans"):
        Mesh(nodes[:3], np.array([[False, True, True]]), [0])


def test_index_tables_of_refined_meshes_are_int32():
    # one closure refinement, then one uniform (four sons each)
    mesh = refine(build_initial_mesh(LShape()), [0])
    mesh = refine(mesh, np.arange(mesh.num_edges))
    for name in ("triangles", "ref_edge", "node_parents", "tri2edge",
                 "edges"):
        assert getattr(mesh, name).dtype == np.int32, name
    assert mesh.edge_triangles().dtype == np.int32


# an int32 cast would wrap 2**32 + k to k, an id in range: the range
# checks read the given values
_BEYOND_INT32 = 2**32


def test_vertex_ids_beyond_int32_rejected():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    for bad in (_BEYOND_INT32 + 2, float(_BEYOND_INT32 + 2)):
        with pytest.raises(ValueError, match=r"vertex id outside \[0, N\)"):
            Mesh(nodes, np.array([[0, 1, bad], [0, 2, 3]]), [2, 0])


def test_reference_edges_beyond_int32_rejected():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="reference edge outside"):
        Mesh(nodes, [[0, 1, 2], [0, 2, 3]], np.array([2, _BEYOND_INT32]))


def test_more_triangle_corners_than_int32_rejected():
    # 3M = 3 * 2**30 corners in a broadcast view, no memory behind its
    # rows; were the size check after the cast, the cast would stop at
    # the id "x" rather than fill 24 GiB
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    tris = np.broadcast_to(np.array(["0", "1", "x"]), (2**30, 3))
    with pytest.raises(ValueError, match="does not fit in int32"):
        Mesh(nodes, tris, [0])


def test_tables_of_the_wrong_shape_rejected():
    with pytest.raises(ValueError, match=r"nodes are not an \(N, 2\)"):
        Mesh([(0, 0, 0), (1, 0, 0), (1, 1, 0)], [[0, 1, 2]], [0])
    nodes = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    for tris in ([[0, 1, 2, 3]], [0, 1, 2]):
        with pytest.raises(ValueError, match=r"triangles are not an \(M, 3\)"):
            Mesh(nodes, tris, [0])


def test_triangles_along_an_edge_in_the_same_direction_rejected():
    # a duplicated triangle would leave the square without boundary
    # edges, an overlapping one would count its area twice
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    kite = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, 0.5]])
    for nodes, tris in ((square, [[0, 1, 2], [0, 1, 2]]),
                        (kite, [[0, 1, 2], [0, 1, 3]])):
        with pytest.raises(ValueError, match="same direction"):
            Mesh(nodes, tris, [0, 0])


def test_reference_edge_table_of_the_wrong_length_rejected():
    # refine would read such a table with an IndexError
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    for ref in ([2], [2, 0, 1], [[2, 0]]):
        with pytest.raises(ValueError, match="reference edge table"):
            Mesh(nodes, [[0, 1, 2], [0, 2, 3]], ref)


def _square_with_history(node_parents=None, level_nodes=None):
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    return Mesh(nodes, [[0, 1, 2], [0, 2, 3]], [2, 0], node_parents,
                level_nodes)


# node 3 as the midpoint of edge (0, 2) of a three-node first level
_PARENTS = [[-1, -1], [-1, -1], [-1, -1], [0, 2]]


def test_valid_bisection_history_accepted():
    mesh = _square_with_history(_PARENTS, [3, 4])
    assert mesh.level == 1
    assert np.array_equal(mesh.node_parents, _PARENTS)


def test_level_counts_not_rising_strictly_to_n_rejected():
    for counts in ([3], [3, 3, 4], [4, 3, 4], [0, 4], [], [3.0, 4.0]):
        with pytest.raises(ValueError, match="level node counts"):
            _square_with_history(_PARENTS, counts)


def test_node_parents_not_an_n_by_2_table_rejected():
    for parents in (_PARENTS[:3], np.array(_PARENTS)[:, :1],
                    np.array(_PARENTS, dtype=float)):
        with pytest.raises(ValueError, match="node parents"):
            _square_with_history(parents, [3, 4])


def test_node_parents_outside_the_previous_level_rejected():
    # -1 rows past the first level would make prolong read column -1
    with pytest.raises(ValueError, match="node parent outside"):
        _square_with_history(level_nodes=[3, 4])
    for pair in ([0, 3], [-1, 2], [0, 4]):
        with pytest.raises(ValueError, match="node parent outside"):
            _square_with_history(_PARENTS[:3] + [pair], [3, 4])


def test_node_parents_beyond_int32_rejected():
    # also in the rows of coarse nodes, which nothing else reads
    for parents, counts in ((_PARENTS[:3] + [[0, _BEYOND_INT32]], [3, 4]),
                            (_PARENTS[:3] + [[_BEYOND_INT32, -1]], [4])):
        with pytest.raises(ValueError, match="node parent outside"):
            _square_with_history(np.array(parents), counts)


def test_clockwise_triangle_rejected():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        Mesh(nodes, np.array([[0, 2, 1]]), np.array([0]))


def test_non_finite_node_coordinates_rejected():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, np.nan]])
    with pytest.raises(ValueError, match="non-finite node coordinates"):
        Mesh(nodes, np.array([[0, 1, 2]]), np.array([0]))


def test_random_refinement_preserves_conformity():
    rng = np.random.default_rng(99)
    mesh = random_refined_mesh(rng, LShape(), max_nodes=300)
    # interior edges have two neighbors, boundary edges one; the boundary
    # edges form closed loops (every boundary node has even degree 2)
    assert ((mesh.edge_triangles()[:, 1] >= 0)
            == ~mesh.is_boundary_edge).all()
    deg = np.bincount(mesh.edges[mesh.is_boundary_edge].ravel(),
                      minlength=mesh.num_nodes)
    assert set(deg[deg > 0]) == {2}


@pytest.mark.parametrize("block", [None, 3, 7])
def test_dump_mesh_writes_the_row_writers_bytes(tmp_path, monkeypatch,
                                                 block):
    # uniform and random refinements of both domains and a triangle with
    # a signed zero and reprs of 17 digits, in one block or in several
    rng = np.random.default_rng(36)
    meshes = [Mesh([[-0.0, 0.0], [0.1 + 0.2, 1e-300], [0.0, 1.0 / 3.0]],
                   [[0, 1, 2]], [2])]
    for domain in (Square(-1.0, -1.0, 1.0, 1.0), LShape()):
        mesh = build_initial_mesh(domain)
        for _ in range(3):
            mesh = refine(mesh, np.arange(mesh.num_edges))
        meshes += [mesh, random_refined_mesh(rng, domain, max_nodes=300)]
    if block is not None:
        monkeypatch.setattr(quadrature, "BLOCK", block)
    for mesh in meshes:
        got, want = tmp_path / "got.txt", tmp_path / "want.txt"
        dump_mesh(mesh, got)
        row_dump_mesh(mesh, want)
        assert got.read_bytes() == want.read_bytes()
        assert len(got.read_bytes().splitlines()) \
            == 1 + mesh.num_nodes + mesh.num_triangles


def test_dump_mesh_format(tmp_path, unit_square_mesh):
    path = tmp_path / "mesh.txt"
    dump_mesh(unit_square_mesh, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "nodes 4 triangles 2"
    assert len(lines) == 1 + 4 + 2
    x, y = map(float, lines[1].split())
    assert (x, y) == (0.0, 0.0)
    v0, v1, v2, r = map(int, lines[5].split())
    assert sorted((v0, v1, v2)) == [0, 1, 2] and r in (0, 1, 2)
