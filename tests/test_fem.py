import numpy as np
import pytest

from obstacle_afem import (Square, assemble_load, assemble_stiffness,
                           build_initial_mesh, energy, energy_norm_diff,
                           example2, prolong, refine, to_zero_obstacle)
from obstacle_afem.fem import cg_solve, solution_gradients
from obstacle_afem.mesh import Mesh
from obstacle_afem.quadrature import (TRI_BARY, TRI_WEIGHTS, gauss_segment,
                                      triangle_points)
from obstacle_afem.multigrid import level_prolongations, vcycle
from tests.solver_oracles import h1_error, jacobi_cg_solve


def single_triangle():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return Mesh(nodes, np.array([[0, 1, 2]]), np.array([1]))


def test_triangle_rule_weights_and_order():
    assert np.isclose(TRI_WEIGHTS.sum(), 1.0)
    assert np.allclose(TRI_BARY.sum(axis=1), 1.0)
    # exact for x^3 y^2 on the unit right triangle: value 1/420
    mesh = single_triangle()
    pts = triangle_points(mesh)[0]
    val = 0.5 * np.sum(TRI_WEIGHTS * pts[:, 0] ** 3 * pts[:, 1] ** 2)
    assert np.isclose(val, 1.0 / 420.0, atol=1e-15)


def test_gauss_segment_exactness():
    p, q = np.array([1.0, 2.0]), np.array([4.0, 6.0])
    pts, w = gauss_segment(p, q)
    length = 5.0
    assert np.isclose(w.sum(), length)
    # s^8 along the segment, s = arclength from p
    s = np.linalg.norm(pts - p, axis=1)
    assert np.isclose(np.sum(w * s ** 8), length ** 9 / 9.0)
    # a batch of segments gives exactly the per-segment points and weights
    rng = np.random.default_rng(3)
    ps, qs = rng.normal(size=(2, 4, 3, 2))
    pts_b, w_b = gauss_segment(ps, qs)
    assert pts_b.shape == (4, 3, 5, 2) and w_b.shape == (4, 3, 5)
    for i, j in np.ndindex(4, 3):
        pts_1, w_1 = gauss_segment(ps[i, j], qs[i, j])
        assert np.array_equal(pts_b[i, j], pts_1)
        assert np.array_equal(w_b[i, j], w_1)


def test_local_stiffness_right_isoceles():
    mesh = single_triangle()
    k = assemble_stiffness(mesh).toarray()
    expect = np.array([[1.0, -0.5, -0.5],
                       [-0.5, 0.5, 0.0],
                       [-0.5, 0.0, 0.5]])
    assert np.allclose(k, expect)


def test_stiffness_row_sums_zero(lshape_mesh):
    mesh = refine(lshape_mesh, np.arange(lshape_mesh.num_edges))
    k = assemble_stiffness(mesh)
    assert np.abs(k @ np.ones(mesh.num_nodes)).max() < 1e-13
    assert np.abs((k - k.T).toarray()).max() < 1e-14


def test_stiffness_energy_of_bilinear_interpolant(unit_square_mesh):
    # nodal interpolant of x*y on the two-triangle square has
    # Dirichlet energy 1 (gradient (0,1) and (1,0) on the two halves)
    mesh = unit_square_mesh
    v = mesh.nodes[:, 0] * mesh.nodes[:, 1]
    k = assemble_stiffness(mesh)
    assert np.isclose(v @ (k @ v), 1.0)


def test_load_partition_of_unity(lshape_mesh):
    b = assemble_load(lshape_mesh, lambda x, y: np.ones_like(x))
    assert np.isclose(b.sum(), 12.0)


def test_load_constant_triangle_thirds():
    mesh = single_triangle()
    b = assemble_load(mesh, lambda x, y: np.full_like(x, -2.0))
    assert np.allclose(b, -2.0 * 0.5 / 3.0)


def test_load_linear_exact(unit_square_mesh):
    # f = x against each hat function, closed form on the two triangles
    b = assemble_load(unit_square_mesh, lambda x, y: x)
    exact = np.zeros(4)
    for t in range(unit_square_mesh.num_triangles):
        tri = unit_square_mesh.triangles[t]
        xs = unit_square_mesh.nodes[tri, 0]
        area = unit_square_mesh.areas[t]
        for i in range(3):
            # int_T x phi_i = area/12 * (sum x + x_i)
            exact[tri[i]] += area / 12.0 * (xs.sum() + xs[i])
    assert np.allclose(b, exact, atol=1e-14)


def test_load_evaluates_f_one_quadrature_point_at_a_time(lshape_mesh):
    mesh = refine(lshape_mesh, np.arange(lshape_mesh.num_edges))
    mesh = refine(mesh, np.arange(mesh.num_edges))
    f = to_zero_obstacle(example2()).f
    shapes = []

    def recorded(x, y):
        shapes.append((np.shape(x), np.shape(y)))
        return f(x, y)

    b = assemble_load(mesh, recorded)
    m = mesh.num_triangles
    assert shapes == [((m,), (m,))] * len(TRI_WEIGHTS)
    # the same load as one evaluation of f on all points at once
    pts = triangle_points(mesh)
    fvals = np.asarray(f(pts[..., 0], pts[..., 1]), dtype=float)
    contrib = np.einsum("q,mq,qi,m->mi", TRI_WEIGHTS, fvals, TRI_BARY,
                        mesh.areas)
    expected = np.zeros(mesh.num_nodes)
    np.add.at(expected, mesh.triangles, contrib)
    assert np.array_equal(b, expected)


def test_energy_values(unit_square_mesh):
    k = assemble_stiffness(unit_square_mesh)
    b = assemble_load(unit_square_mesh, lambda x, y: np.ones_like(x))
    zero = np.zeros(4)
    assert energy(k, b, zero) == 0.0
    v = unit_square_mesh.nodes[:, 0]
    assert np.isclose(energy(k, np.zeros(4), v),
                      0.5 * v @ (k @ v))
    assert energy(k, np.zeros(4), v) >= 0.0


def test_prolong_is_exact_for_linears(unit_square_mesh):
    coarse = unit_square_mesh
    fine = refine(coarse, np.arange(coarse.num_edges))
    v = 2.0 * coarse.nodes[:, 0] - 3.0 * coarse.nodes[:, 1] + 1.0
    vf = prolong(v, fine)
    assert np.allclose(vf, 2.0 * fine.nodes[:, 0]
                       - 3.0 * fine.nodes[:, 1] + 1.0)


def test_prolong_midpoint_average(unit_square_mesh):
    coarse = unit_square_mesh
    fine = refine(coarse, np.arange(coarse.num_edges))
    v = np.array([1.0, 5.0, 2.0, -4.0])
    vf = prolong(v, fine)
    for i in range(coarse.num_nodes, fine.num_nodes):
        p0, p1 = fine.node_parents[i]
        assert np.isclose(vf[i], 0.5 * (v[p0] + v[p1]))


def test_prolong_preserves_energy(unit_square_mesh):
    coarse = unit_square_mesh
    fine = refine(coarse, [0, 2, 4])
    v = np.array([0.3, -1.2, 2.0, 0.7])
    kc = assemble_stiffness(coarse)
    kf = assemble_stiffness(fine)
    vf = prolong(v, fine)
    assert np.isclose(v @ (kc @ v), vf @ (kf @ vf), atol=1e-12)


def test_prolong_rejects_unrelated_meshes(unit_square_mesh):
    # values two generations back, and a mesh without history
    twice = refine(refine(unit_square_mesh, [0]), [0])
    with pytest.raises(ValueError):
        prolong(np.zeros(4), twice)
    with pytest.raises(ValueError):
        prolong(np.zeros(4), build_initial_mesh(Square(0.0, 0.0, 2.0, 2.0)))


def test_directly_built_mesh_has_a_one_level_history():
    mesh = single_triangle()
    assert mesh.level == 0
    assert list(mesh.level_nodes) == [3]
    assert np.array_equal(mesh.node_parents, np.full((3, 2), -1))
    with pytest.raises(ValueError):
        prolong(np.zeros(3), mesh)


def test_energy_norm_diff_properties(unit_square_mesh):
    k = assemble_stiffness(unit_square_mesh)
    rng = np.random.default_rng(3)
    v, w, z = rng.normal(size=(3, 4))
    assert energy_norm_diff(k, v, v) == 0.0
    assert np.isclose(energy_norm_diff(k, v, w),
                      energy_norm_diff(k, w, v))
    assert energy_norm_diff(k, v, z) <= (energy_norm_diff(k, v, w)
                                         + energy_norm_diff(k, w, z) + 1e-14)


def test_solution_gradients(unit_square_mesh):
    v = unit_square_mesh.nodes[:, 0] + 2.0 * unit_square_mesh.nodes[:, 1]
    g = solution_gradients(unit_square_mesh, v)
    assert np.allclose(g, [1.0, 2.0])


def test_h1_error_vanishes_for_reproduced_function(unit_square_mesh):
    mesh = refine(unit_square_mesh, np.arange(unit_square_mesh.num_edges))
    v = mesh.nodes[:, 0] - mesh.nodes[:, 1]
    err = h1_error(mesh, v, lambda x, y: x - y,
                   lambda x, y: (np.ones_like(x), -np.ones_like(x)))
    assert err < 1e-14


def test_cg_matches_direct(unit_square_mesh):
    # the V-cycle CG and the Jacobi CG oracle against a direct solve, on
    # the full interior system and on one truncated at a random active set
    mesh = unit_square_mesh
    for _ in range(3):
        mesh = refine(mesh, np.arange(mesh.num_edges))
    k = assemble_stiffness(mesh)
    load = assemble_load(mesh, lambda x, y: np.ones_like(x))
    interior = np.ones(mesh.num_nodes, bool)
    interior[mesh.boundary_node_ids()] = False
    active = np.random.default_rng(5).random(mesh.num_nodes) < 0.3
    prolongations = level_prolongations(mesh)
    assert len(prolongations) == 3
    import scipy.sparse.linalg as spla
    for idx in (np.nonzero(interior)[0], np.nonzero(interior & ~active)[0]):
        sub = k[idx][:, idx]
        rhs = load[idx]
        direct = spla.spsolve(sub.tocsc(), rhs)
        x, steps = cg_solve(sub, rhs, np.zeros(len(idx)),
                            vcycle(sub, prolongations, idx))
        assert np.abs(x - direct).max() < 1e-10
        assert 0 < steps < 20
        assert np.abs(jacobi_cg_solve(sub, rhs) - direct).max() < 1e-10
