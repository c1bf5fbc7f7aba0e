import numpy as np
import pytest
import scipy.sparse.linalg as spla

from obstacle_afem import (BoundaryTrace, LShape, Mesh, Square,
                           assemble_load, assemble_stiffness,
                           build_initial_mesh, energy, example2, refine,
                           run_adaptive)
from obstacle_afem import vi
from obstacle_afem.boundary import interpolate_boundary
from obstacle_afem.multigrid import COARSE_LIMIT
from obstacle_afem.vi import check_kkt, solve_obstacle
from tests.conftest import random_refined_mesh, recording
from tests.solver_oracles import projected_sor_solve


def setup_problem(mesh, f, g):
    gl = interpolate_boundary(g, mesh)
    return assemble_stiffness(mesh), assemble_load(mesh, f), gl


def refined_square(levels=3):
    mesh = build_initial_mesh(Square(0.0, 0.0, 1.0, 1.0))
    for _ in range(levels):
        mesh = refine(mesh, np.arange(mesh.num_edges))
    return mesh


def test_negative_force_zero_data_gives_zero_solution(zero_trace):
    mesh = refined_square()
    k, b, gl = setup_problem(mesh, lambda x, y: np.full_like(x, -2.0),
                             zero_trace)
    sol = solve_obstacle(mesh, k, b, gl)
    assert np.abs(sol.values).max() == 0.0
    interior = np.isnan(gl)
    assert (sol.multiplier[interior] > 0).all()
    assert np.array_equal(sol.active, interior)
    assert check_kkt(sol, k, b, gl).max_violation == 0.0


def test_positive_force_matches_unconstrained_solve(zero_trace):
    mesh = refined_square()
    k, b, gl = setup_problem(mesh, lambda x, y: np.ones_like(x),
                             zero_trace)
    sol = solve_obstacle(mesh, k, b, gl)
    assert sol.active.sum() == 0
    interior = np.isnan(gl)
    idx = np.nonzero(interior)[0]
    u = np.zeros(mesh.num_nodes)
    u[idx] = spla.spsolve(k[idx][:, idx].tocsc(), b[idx])
    assert np.abs(sol.values - u).max() < 1e-10
    assert (sol.values >= 0.0).all()


def test_active_set_localizes_at_contact_region():
    from obstacle_afem import example1
    p = example1()
    mesh = build_initial_mesh(p.domain)
    for _ in range(4):
        mesh = refine(mesh, np.arange(mesh.num_edges))
    k, b, gl = setup_problem(mesh, p.f, p.g)
    sol = solve_obstacle(mesh, k, b, gl)
    r = np.hypot(mesh.nodes[:, 0], mesh.nodes[:, 1])
    assert r[sol.active].max() < 1.1
    err = np.abs(sol.values - p.exact_solution(mesh.nodes[:, 0],
                                               mesh.nodes[:, 1])).max()
    assert err < 0.05


def test_pdas_and_sor_agree_on_random_meshes():
    rng = np.random.default_rng(42)
    for i in range(5):
        dom = Square(0, 0, 1, 1) if i % 2 == 0 else LShape(1.0)
        mesh = random_refined_mesh(rng, dom)
        cf = rng.uniform(-5, 5, 6)
        ca = rng.uniform(-1, 1, 3)

        def f(x, y):
            return (cf[0] + cf[1] * x + cf[2] * y + cf[3] * x * y
                    + cf[4] * x ** 2 + cf[5] * y ** 2)

        g = BoundaryTrace(lambda x, y: (ca[0] + ca[1] * x + ca[2] * y) ** 2)
        k, b, gl = setup_problem(mesh, f, g)
        s1 = solve_obstacle(mesh, k, b, gl)
        s2 = projected_sor_solve(mesh, k, b, gl)
        assert np.abs(s1.values - s2.values).max() < 1e-8
        assert check_kkt(s1, k, b, gl).max_violation < 1e-10


def test_kkt_detects_perturbation(zero_trace):
    mesh = refined_square()
    k, b, gl = setup_problem(mesh, lambda x, y: np.ones_like(x),
                             zero_trace)
    sol = solve_obstacle(mesh, k, b, gl)
    inactive = np.nonzero(~sol.active & np.isnan(gl))[0]
    sol.values[inactive[0]] += 1e-3
    report = check_kkt(sol, k, b, gl)
    assert report.inactive_residual > 1e-4


def test_minimality_against_random_admissible(zero_trace):
    mesh = refined_square(2)
    k, b, gl = setup_problem(mesh, lambda x, y: x - y, zero_trace)
    sol = solve_obstacle(mesh, k, b, gl)
    ju = energy(k, b, sol.values)
    interior = np.isnan(gl)
    rng = np.random.default_rng(17)
    for _ in range(50):
        w = np.zeros(mesh.num_nodes)
        w[interior] = rng.uniform(0.0, 1.0, interior.sum())
        assert energy(k, b, w) >= ju - 1e-12


def test_warm_start_reaches_same_solution(zero_trace):
    mesh = refined_square()
    k, b, gl = setup_problem(mesh, lambda x, y: np.full_like(x, -2.0),
                             zero_trace)
    cold = solve_obstacle(mesh, k, b, gl)
    warm = solve_obstacle(mesh, k, b, gl, warm_active=cold.active)
    assert np.array_equal(warm.values, cold.values)
    assert warm.iterations <= cold.iterations


def test_short_warm_mask_is_padded_with_inactive_nodes(zero_trace):
    # the previous level's mask covers the nodes that refinement keeps
    # in front; solve_obstacle pads it with inactive new nodes itself
    f = lambda x, y: x - y
    coarse = refined_square(2)
    prev = solve_obstacle(coarse, *setup_problem(coarse, f, zero_trace))
    mesh = refine(coarse, np.arange(coarse.num_edges))
    k, b, gl = setup_problem(mesh, f, zero_trace)
    padded = np.zeros(mesh.num_nodes, dtype=bool)
    padded[:coarse.num_nodes] = prev.active
    short = solve_obstacle(mesh, k, b, gl, warm_active=prev.active)
    full = solve_obstacle(mesh, k, b, gl, warm_active=padded)
    assert prev.active.any() and len(prev.active) < mesh.num_nodes
    assert np.array_equal(short.values, full.values)
    assert np.array_equal(short.active, full.active)
    assert short.iterations == full.iterations


def test_mesh_without_history_solves_like_the_refined_mesh(zero_trace):
    # a Mesh built directly has a one-level history: its only level is
    # too large for the dense coarse solve and is smoothed instead
    f = lambda x, y: np.sin(6.0 * x) + y - 0.5
    coarse = refined_square(4)
    refined = refine(coarse, np.arange(coarse.num_edges))
    flat = Mesh(refined.nodes, refined.triangles, refined.ref_edge)
    assert list(flat.level_nodes) == [flat.num_nodes]
    solutions = []
    for mesh in (refined, flat):
        k, b, gl = setup_problem(mesh, f, zero_trace)
        with recording(np.linalg, "pinv") as dense:
            solutions.append(solve_obstacle(mesh, k, b, gl))
        sizes = [args[0].shape[0] for args, _ in dense]
        assert all(size <= COARSE_LIMIT for size in sizes)
        assert bool(sizes) == (mesh is refined)
    interior = int(np.isnan(gl).sum())
    assert interior > COARSE_LIMIT
    sol, sol_flat = solutions
    assert sol.active.any() and not sol.active.all()
    assert np.array_equal(sol.active, sol_flat.active)
    assert np.abs(sol.values - sol_flat.values).max() < 1e-10


def test_cg_iterations_stay_bounded_along_an_adaptive_run():
    # the multilevel preconditioner keeps every PDAS system's CG count
    # small as the adaptive mesh grows
    with recording(vi, "cg_solve") as calls:
        result = run_adaptive(example2(), 0.5, max_elements=20000)
    steps = [res[1] for _, res in calls]
    assert result.records[-1].n_elements >= 20000
    assert max(steps) <= 30
    assert sum(steps) == sum(r.cg_iters for r in result.records)


def test_infeasible_boundary_data_rejected():
    mesh = refined_square(1)
    g = BoundaryTrace(lambda x, y: np.full_like(x, -1.0))
    k, b, gl = setup_problem(mesh, lambda x, y: np.zeros_like(x), g)
    with pytest.raises(ValueError):
        solve_obstacle(mesh, k, b, gl)
    with pytest.raises(ValueError):
        projected_sor_solve(mesh, k, b, gl)


def test_sor_relaxation_parameter_validated(zero_trace):
    mesh = refined_square(1)
    k, b, gl = setup_problem(mesh, lambda x, y: np.zeros_like(x),
                             zero_trace)
    with pytest.raises(ValueError):
        projected_sor_solve(mesh, k, b, gl, omega=2.5)
