"""End-to-end acceptance gate.

Each test records one PASS/FAIL line (replayed in the terminal summary by
the conftest hook so it shows up in plain pytest output) and then asserts.
"""

import collections
import sys

import numpy as np
import pytest

from obstacle_afem import (BoundaryTrace, LShape, ProblemSpec, Square, adapt,
                           build_initial_mesh, dorfler_mark, example1,
                           example2, problems, refine, reference_energy,
                           run_adaptive, run_uniform)
from obstacle_afem.boundary import apx_indicator, interpolate_boundary
from obstacle_afem.cli import fit_rates
from obstacle_afem.fem import (assemble_load, assemble_stiffness, energy,
                               energy_norm_diff, prolong)
from obstacle_afem.vi import check_kkt, solve_obstacle
from tests.conftest import random_refined_mesh, recording
from tests.mesh_oracles import father_triangles, min_angle
from tests.solver_oracles import h1_error, projected_sor_solve


def report(num, ok, detail):
    from tests.conftest import CRITERION_LINES
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} — {detail}"
    CRITERION_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def sqrt_eps_slope(records):
    return fit_rates([r.n_elements for r in records],
                     np.sqrt([r.eps for r in records])).slope


@pytest.fixture(scope="module")
def example1_run():
    """Adaptive run at theta = 0.8 and the (mesh, nodal values,
    indicators) of each of its levels."""
    with recording(adapt, "assemble_indicators") as calls:
        result = run_adaptive(example1(), 0.8, max_elements=4000)
    return result, [(args[0], args[1], ind) for args, ind in calls]


@pytest.fixture(scope="module")
def theta_runs(example1_run):
    runs = {0.8: example1_run[0]}
    for theta in (0.4, 0.6):
        runs[theta] = run_adaptive(example1(), theta, max_elements=4000)
    return runs


@pytest.fixture(scope="module")
def example2_reference():
    with recording(problems, "energy") as calls:
        ref = reference_energy(example2(), n_target=200000)
    ref_err = abs(calls[-1][1] - calls[-2][1]) / 3.0
    return ref, ref_err


def test_criterion_1_example1_adaptive_rates(example1_run):
    records = example1_run[0].records
    eps_slope = sqrt_eps_slope(records[-5:])
    apx_slope = fit_rates([r.n_elements for r in records[-5:]],
                          [r.apx for r in records[-5:]]).slope
    ok = abs(eps_slope + 0.5) <= 0.15 and abs(apx_slope + 0.75) <= 0.15
    report(1, ok, f"sqrt(eps) slope {eps_slope:+.3f} (want -0.5±0.15), "
           f"apx slope {apx_slope:+.3f} (want -0.75±0.15), "
           f"final N {records[-1].n_elements}")


def test_criterion_2_theta_robustness(theta_runs):
    curves = {}
    for theta, result in theta_runs.items():
        n = np.array([r.n_elements for r in result.records], float)
        e = np.sqrt([r.eps for r in result.records])
        curves[theta] = (n, e)
    worst = 1.0
    thetas = sorted(curves)
    for i, a in enumerate(thetas):
        for b in thetas[i + 1:]:
            na, ea = curves[a]
            nb, eb = curves[b]
            lo, hi = max(na.min(), nb.min()), min(na.max(), nb.max())
            grid = np.geomspace(lo, hi, 30)
            ia = np.exp(np.interp(np.log(grid), np.log(na), np.log(ea)))
            ib = np.exp(np.interp(np.log(grid), np.log(nb), np.log(eb)))
            worst = max(worst, float(np.max(np.maximum(ia / ib, ib / ia))))
    ok = worst < 2.0
    report(2, ok, f"max sqrt(eps) ratio at matched N = {worst:.3f} "
           f"(want < 2) for theta in {thetas}")


def test_criterion_3_example2_adaptive_vs_uniform(example2_reference):
    ref, ref_err = example2_reference
    problem = example2()
    adaptive = run_adaptive(problem, 0.5, max_elements=30000,
                            reference_energy=ref).records
    uniform = run_uniform(problem, max_elements=30000,
                          reference_energy=ref).records
    # drop levels contaminated by the reference discretization error
    ada = [r for r in adaptive if r.eps >= 10.0 * ref_err]
    uni = [r for r in uniform if r.eps >= 10.0 * ref_err]
    ada_slope = sqrt_eps_slope(ada[-8:])
    uni_slope = sqrt_eps_slope(uni[-4:])
    ok = (abs(ada_slope + 0.5) <= 0.15
          and abs(uni_slope + 5.0 / 12.0) <= 0.1)
    report(3, ok, f"adaptive slope {ada_slope:+.3f} (want -0.5±0.15), "
           f"uniform slope {uni_slope:+.3f} (want -5/12±0.1), "
           f"reference error estimate {ref_err:.2e}")


def test_criterion_4_reliability_band(example1_run):
    problem = example1()
    result, levels = example1_run
    ratios = []
    for (mesh, values, ind), rec in zip(levels, result.records):
        if rec.level < 3:
            continue
        err = h1_error(mesh, values, problem.exact_solution,
                       problem.exact_gradient)
        ratios.append(err / ind.rho)
    factor = max(ratios) / min(ratios)
    ok = factor < 10.0
    report(4, ok, f"H1-error/estimator ratio in "
           f"[{min(ratios):.3f}, {max(ratios):.3f}], factor {factor:.2f} "
           f"(want < 10) over levels 3..{result.records[-1].level}")


def test_criterion_5_solver_oracle_equivalence():
    rng = np.random.default_rng(42)
    worst_diff, worst_kkt = 0.0, 0.0
    for i in range(10):
        domain = Square(0, 0, 1, 1) if i % 2 == 0 else LShape(1.0)
        mesh = random_refined_mesh(rng, domain, max_nodes=200)
        cf = rng.uniform(-5.0, 5.0, 6)
        ca = rng.uniform(-1.0, 1.0, 3)

        def f(x, y):
            return (cf[0] + cf[1] * x + cf[2] * y + cf[3] * x * y
                    + cf[4] * x ** 2 + cf[5] * y ** 2)

        g = BoundaryTrace(lambda x, y: (ca[0] + ca[1] * x + ca[2] * y) ** 2)
        gl = interpolate_boundary(g, mesh)
        k = assemble_stiffness(mesh)
        b = assemble_load(mesh, f)
        pdas = solve_obstacle(mesh, k, b, gl)
        sor = projected_sor_solve(mesh, k, b, gl)
        worst_diff = max(worst_diff,
                         float(np.abs(pdas.values - sor.values).max()))
        worst_kkt = max(worst_kkt, check_kkt(pdas, k, b, gl).max_violation)
    ok = worst_diff < 1e-8 and worst_kkt < 1e-10
    report(5, ok, f"PDAS vs projected SOR max diff {worst_diff:.2e} "
           f"(want < 1e-8), max KKT violation {worst_kkt:.2e} "
           f"(want < 1e-10) on 10 random meshes")


def test_criterion_6_energy_gap():
    problem = example1()
    rng = np.random.default_rng(7)
    mesh = build_initial_mesh(problem.domain)
    worst = -np.inf
    for _ in range(5):
        gl = interpolate_boundary(problem.g, mesh)
        k = assemble_stiffness(mesh)
        b = assemble_load(mesh, problem.f)
        sol = solve_obstacle(mesh, k, b, gl)
        ju = energy(k, b, sol.values)
        interior = np.isnan(gl)
        for _ in range(100):
            w = sol.values.copy()
            w[interior] = rng.uniform(0.0, 2.0, int(interior.sum()))
            gap = (energy(k, b, w) - ju
                   - 0.5 * energy_norm_diff(k, sol.values, w) ** 2)
            worst = max(worst, -gap)
        mesh = refine(mesh, np.arange(mesh.num_edges))
    ok = worst <= 1e-10
    report(6, ok, f"worst energy-gap violation {worst:.2e} "
           f"(want <= 1e-10) over 5 meshes x 100 admissible candidates")


def test_criterion_7_pythagoras_identity():
    worst = 0.0
    cases = [
        (lambda x, y: x ** 2, lambda x, y: (2.0 * x, 0.0 * x)),
        (lambda x, y: x ** 3, lambda x, y: (3.0 * x ** 2, 0.0 * x)),
    ]
    for value, gradient in cases:
        g = BoundaryTrace(value, gradient)
        mesh = build_initial_mesh(Square(0, 0, 1, 1))
        for _ in range(3):
            fine = refine(mesh, np.arange(mesh.num_edges))
            gl_c = interpolate_boundary(g, mesh)
            gl_f = interpolate_boundary(g, fine)
            vc = np.where(np.isnan(gl_c), 0.0, gl_c)
            vc_f = prolong(vc, fine)
            vf = np.where(np.isnan(gl_f), 0.0, gl_f)
            # all three terms weighted with the coarse width 2 h_fine
            term_fine = 2.0 * sum(apx_indicator(fine, g, gl_f, e)
                                  for e in fine.boundary_edge_ids())
            term_mid = 0.0
            for e in fine.boundary_edge_ids():
                n0, n1 = fine.edges[e]
                h = fine.edge_lengths[e]
                slope_f = (vf[n1] - vf[n0]) / h
                slope_c = (vc_f[n1] - vc_f[n0]) / h
                term_mid += 2.0 * h * h * (slope_f - slope_c) ** 2
            term_coarse = sum(apx_indicator(mesh, g, gl_c, e)
                              for e in mesh.boundary_edge_ids())
            worst = max(worst,
                        abs(term_fine + term_mid - term_coarse))
            mesh = fine
    ok = worst <= 1e-10
    report(7, ok, f"worst defect of the three-term identity {worst:.2e} "
           f"(want <= 1e-10) for quadratic and cubic traces, 3 levels")


def brute_force_min_cardinality(contrib, theta):
    n = len(contrib)
    masks = np.arange(1 << n, dtype=np.uint64)
    bits = (masks[:, None] >> np.arange(n, dtype=np.uint64)) & 1
    sums = bits.astype(float) @ contrib
    ok = sums >= theta * contrib.sum()
    return int(bits.sum(axis=1)[ok].min())


def test_criterion_8_mesh_and_marking_properties():
    rng = np.random.default_rng(2024)
    base_sq = build_initial_mesh(Square(-1.5, -1.5, 1.5, 1.5))
    base_l = build_initial_mesh(LShape())

    def two_sweep_angle(m):
        for _ in range(2):
            m = refine(m, np.arange(m.num_edges))
        return min_angle(m)

    angle_bound = min(two_sweep_angle(base_sq), two_sweep_angle(base_l))
    mesh = base_sq
    mesh_ok = True
    for _ in range(1000):
        if mesh.num_triangles > 1500:
            mesh = base_sq if rng.random() < 0.5 else base_l
        k = int(rng.integers(1, max(2, mesh.num_edges // 4)))
        marked = rng.choice(mesh.num_edges, size=min(k, mesh.num_edges),
                            replace=False)
        fine = refine(mesh, marked)  # constructor audits conformity
        parent_pairs = {tuple(sorted(p))
                        for p in fine.node_parents[mesh.num_nodes:]}
        halved = all(tuple(sorted(mesh.edges[e])) in parent_pairs
                     for e in marked)
        fathers = father_triangles(mesh, fine)
        counts = collections.Counter(fathers.tolist())
        pa = mesh.areas[fathers]
        fa = fine.areas
        split = np.array([counts[t] > 1 for t in fathers])
        areas_ok = ((fa[split] >= pa[split] / 4 - 1e-13).all()
                    and (fa[split] <= pa[split] / 2 + 1e-13).all())
        angle_ok = min_angle(fine) >= angle_bound - 1e-12
        if not (halved and areas_ok and angle_ok):
            mesh_ok = False
            break
        mesh = fine

    class Fake:
        def __init__(self, c):
            self.contributions = c

    rng = np.random.default_rng(123)
    mark_ok = True
    for _ in range(200):
        n = int(rng.integers(1, 16))
        contrib = rng.uniform(0.0, 1.0, n) ** 2
        theta = float(rng.uniform(0.05, 0.95))
        marked = dorfler_mark(Fake(contrib), theta)
        if (contrib[marked].sum() < theta * contrib.sum() * (1 - 1e-9)
                or len(marked) != brute_force_min_cardinality(contrib,
                                                              theta)):
            mark_ok = False
            break
    ok = mesh_ok and mark_ok
    report(8, ok, f"1000 randomized refines: invariants "
           f"{'held' if mesh_ok else 'violated'}; greedy marking "
           f"{'matches' if mark_ok else 'misses'} brute-force minimal "
           f"cardinality on 200 instances (<= 15 edges)")


def test_criterion_9_trivial_termination(zero_trace):
    zero = lambda x, y: np.zeros_like(np.asarray(x, dtype=float))
    p_zero = ProblemSpec(name="all-zero", domain=Square(0, 0, 1, 1),
                         g=zero_trace, f=zero)
    records = run_adaptive(p_zero, 0.5).records
    zero_ok = len(records) == 1 and records[0].rho == 0.0

    p_neg = ProblemSpec(name="fully-active", domain=Square(0, 0, 1, 1),
                        g=zero_trace,
                        f=lambda x, y: np.full_like(x, -2.0))
    with recording(adapt, "assemble_indicators") as calls:
        run_uniform(p_neg, max_elements=600)
    flat_ok = all(np.abs(args[1]).max() == 0.0 for args, _ in calls)
    ok = zero_ok and flat_ok
    report(9, ok, f"zero data: {len(records)} level(s), rho0 = "
           f"{records[0].rho}; negative force: U identically zero on "
           f"{len(calls)} uniform levels: {flat_ok}")
