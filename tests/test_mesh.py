import collections

import numpy as np
import pytest

from obstacle_afem import (LShape, Mesh, Square, build_initial_mesh,
                           dump_mesh, refine)
from obstacle_afem.mesh import boundary_polygon
from tests.conftest import random_refined_mesh
from tests.edge_oracles import edge_patch
from tests.mesh_oracles import (build_edges_unique, min_angle, refine_loop,
                                shape_regularity)


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
        lengths = mesh.edge_lengths[mesh.tri2edge[t]]
        assert np.isclose(lengths[mesh.ref_edge[t]], lengths.max())
        # both reference edges are the diagonal
        assert np.isclose(lengths[mesh.ref_edge[t]], np.sqrt(2.0))


def test_refine_empty_marked_is_identity(unit_square_mesh):
    assert refine(unit_square_mesh, []) is unit_square_mesh


def test_refine_unknown_edge_rejected(unit_square_mesh):
    with pytest.raises(ValueError):
        refine(unit_square_mesh, [unit_square_mesh.num_edges])


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
    counts = collections.Counter(fine.parent_triangles.tolist())
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
                 "parent_triangles"):
        assert np.array_equal(getattr(fine, name), getattr(ref, name)), name
    assert fine.level == ref.level
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
    names = ("edges", "tri2edge", "edge2tri", "is_boundary_edge",
             "edge_lengths")
    for name, ref in zip(names, build_edges_unique(mesh)):
        got = getattr(mesh, name)
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
        counts = collections.Counter(fine.parent_triangles.tolist())
        pa = mesh.areas[fine.parent_triangles]
        fa = fine.areas
        split = np.array([counts[t] > 1 for t in fine.parent_triangles])
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


def test_clockwise_triangle_rejected():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        Mesh(nodes, np.array([[0, 2, 1]]), np.array([0]))


def test_random_refinement_preserves_conformity():
    rng = np.random.default_rng(99)
    mesh = random_refined_mesh(rng, LShape(), max_nodes=300)
    # interior edges have two neighbors, boundary edges one; the boundary
    # edges form closed loops (every boundary node has even degree 2)
    assert ((mesh.edge2tri[:, 1] >= 0) == ~mesh.is_boundary_edge).all()
    deg = np.bincount(mesh.edges[mesh.is_boundary_edge].ravel(),
                      minlength=mesh.num_nodes)
    assert set(deg[deg > 0]) == {2}


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
