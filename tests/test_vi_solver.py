import numpy as np
import pytest
import scipy.sparse.linalg as spla

from obstacle_afem import (LShape, Mesh, Square,
                           assemble_load, assemble_stiffness,
                           build_initial_mesh, energy, example1, example2,
                           refine, run_adaptive)
from obstacle_afem import vi
from obstacle_afem.boundary import interpolate_boundary
from obstacle_afem.vi import COARSE_LIMIT, check_kkt, solve_obstacle
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
    assert ((k @ sol.values - b)[interior] > 0).all()
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
    p = example1()
    mesh = build_initial_mesh(p.domain)
    for _ in range(4):
        mesh = refine(mesh, np.arange(mesh.num_edges))
    k, b, gl = setup_problem(mesh, p.f, p.g)
    sol = solve_obstacle(mesh, k, b, gl)
    r = np.hypot(mesh.nodes[:, 0], mesh.nodes[:, 1])
    assert r[sol.active].max() < 1.1
    err = np.abs(sol.values - p.g(mesh.nodes[:, 0], mesh.nodes[:, 1])).max()
    assert err < 0.05


def test_pdas_raises_when_it_does_not_converge(monkeypatch):
    # 4 PDAS iterations from a cold start on this mesh
    p = example1()
    mesh = build_initial_mesh(p.domain)
    for _ in range(3):
        mesh = refine(mesh, np.arange(mesh.num_edges))
    k, b, gl = setup_problem(mesh, p.f, p.g)
    monkeypatch.setattr(vi, "MAX_PDAS_ITER", 1)
    with pytest.raises(vi.PdasError,
                       match="PDAS did not converge within 1 iterations"):
        solve_obstacle(mesh, k, b, gl)


def test_pdas_raises_at_once_when_its_active_sets_cycle(monkeypatch,
                                                        zero_trace):
    # one interior node and a positive load b: a CG that overshoots by a
    # factor of ten activates the node; held at the obstacle, its
    # multiplier -b is negative and frees it, so the empty start recurs
    mesh = refined_square(1)
    k, b, gl = setup_problem(mesh, lambda x, y: np.ones_like(x), zero_trace)
    assert np.isnan(gl).sum() == 1
    calls = []

    def overshooting_cg(matrix, rhs, x0, precond, rtol=vi.CG_RTOL):
        calls.append(1)
        return 10.0 * rhs / matrix.diagonal(), 1

    monkeypatch.setattr(vi, "cg_solve", overshooting_cg)
    with pytest.raises(vi.PdasError, match="PDAS cycles with length 2: the "
                       "active set of iteration 2 is that of iteration 0"):
        solve_obstacle(mesh, k, b, gl)
    assert len(calls) == 1


def cg_tolerances(calls):
    """The tolerance of each recorded ``cg_solve`` call."""
    return [args[4] if len(args) > 4 else vi.CG_RTOL for args, _ in calls]


def test_every_solve_ends_with_a_tight_cg_solve():
    # the loose solves only steer PDAS: the returned U and lambda come
    # from a solve to CG_RTOL, so the KKT bound holds as before
    rng = np.random.default_rng(42)
    cases = []
    for i in range(5):
        mesh = random_refined_mesh(rng, Square(0, 0, 1, 1) if i % 2 == 0
                                   else LShape(1.0))
        cf = rng.uniform(-5, 5, 3)
        cases.append((mesh, lambda x, y, c=cf: c[0] + c[1] * x + c[2] * y,
                      lambda x, y: (x - y) ** 2))
    p = example1()
    mesh = build_initial_mesh(p.domain)
    for _ in range(4):
        mesh = refine(mesh, np.arange(mesh.num_edges))
    cases.append((mesh, p.f, p.g))
    loose = 0
    for mesh, f, g in cases:
        k, b, gl = setup_problem(mesh, f, g)
        with recording(vi, "cg_solve") as calls:
            sol = solve_obstacle(mesh, k, b, gl)
        tolerances = cg_tolerances(calls)
        assert tolerances[-1] == vi.CG_RTOL
        assert sol.cg_iterations == sum(res[1] for _, res in calls)
        assert check_kkt(sol, k, b, gl).max_violation < 1e-10
        loose += tolerances.count(vi.PDAS_RTOL)
    assert loose > len(cases)


def test_overturned_confirmation_continues_with_tight_solves(monkeypatch,
                                                            zero_trace):
    # a loose CG that stops at once steers PDAS away from the solution's
    # active set A*, the seed, and repeats a wrong set; the tight
    # confirmation overturns it, and the tight phase returns to A*, a
    # set seen only in the loose phase, without a cycle error
    mesh = refined_square(5)
    k, b, gl = setup_problem(mesh, lambda x, y: np.sin(6.0 * x) + y - 0.5,
                             zero_trace)
    exact = solve_obstacle(mesh, k, b, gl)
    cg_solve = vi.cg_solve

    def stopping_cg(matrix, rhs, x0, precond, rtol=vi.CG_RTOL):
        if rtol > vi.CG_RTOL:
            return np.array(x0), 0
        return cg_solve(matrix, rhs, x0, precond, rtol)

    monkeypatch.setattr(vi, "cg_solve", stopping_cg)
    with recording(vi, "cg_solve") as calls:
        sol = solve_obstacle(mesh, k, b, gl, warm_active=exact.active)
    tolerances = cg_tolerances(calls)
    first_tight = tolerances.index(vi.CG_RTOL)
    assert first_tight >= 2
    assert all(t == vi.PDAS_RTOL for t in tolerances[:first_tight])
    assert all(t == vi.CG_RTOL for t in tolerances[first_tight:])
    assert len(tolerances) - first_tight >= 2
    assert np.array_equal(sol.active, exact.active)
    assert np.abs(sol.values - exact.values).max() < 1e-10
    assert check_kkt(sol, k, b, gl).max_violation < 1e-10


@pytest.mark.parametrize("coarse_limit", [COARSE_LIMIT, 200])
def test_pdas_ends_at_a_degenerate_node(monkeypatch, coarse_limit):
    # with a coarsest level of up to 200 unknowns, a node of level 11
    # holds U = 2.3e-28 and lambda = 9.1e-28: the rule lambda - U > 0
    # alone flipped it on every iteration, and PDAS cycled
    monkeypatch.setattr(vi, "COARSE_LIMIT", coarse_limit)
    result = run_adaptive(example2(), 0.4, max_elements=800)
    assert result.records[-1].n_elements >= 800
    assert len(result.records) > 11


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

        g = lambda x, y: (ca[0] + ca[1] * x + ca[2] * y) ** 2
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


def test_kkt_detects_a_solution_for_other_boundary_data():
    # example 1, uniformly refined three times, solved with g_l + 0.5 and
    # checked against g_l: only the boundary residual sees the shift
    p = example1()
    mesh = build_initial_mesh(p.domain)
    for _ in range(3):
        mesh = refine(mesh, np.arange(mesh.num_edges))
    k, b, gl = setup_problem(mesh, p.f, p.g)
    sol = solve_obstacle(mesh, k, b, gl + 0.5)
    report = check_kkt(sol, k, b, gl)
    assert report.boundary_residual >= 0.5
    assert report.max_violation >= 0.5
    assert check_kkt(solve_obstacle(mesh, k, b, gl), k, b,
                     gl).boundary_residual == 0.0


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


def test_warm_active_other_than_a_boolean_mask_of_at_most_n_is_rejected(
        zero_trace):
    # node ids would read as a mask, and a longer mask fails to broadcast
    mesh = refined_square(4)
    k, b, gl = setup_problem(mesh, lambda x, y: np.full_like(x, -2.0),
                             zero_trace)
    n = mesh.num_nodes
    assert n == 289
    for warm in (np.arange(101), np.zeros(n + 1, dtype=bool),
                 np.zeros((17, 17), dtype=bool)):
        with pytest.raises(ValueError, match="warm_active"):
            solve_obstacle(mesh, k, b, gl, warm_active=warm)


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
    g = lambda x, y: np.full_like(x, -1.0)
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
