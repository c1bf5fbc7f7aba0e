import json

import numpy as np
import pytest

from obstacle_afem import (LShape, Obstacle, ProblemSpec,
                           Square, apx_indicator, build_initial_mesh,
                           example1, example2, load_custom, problems,
                           reference_energy, refine, to_zero_obstacle)
from obstacle_afem.problems import (_chi_laplacian, _chi_value,
                                    _compile_expr, _example2_f,
                                    _gamma1_derivatives)
from tests.conftest import recording
from tests.kernel_oracles import (example1_gradient, radial_example1_energy,
                                  whole_domain_chi_laplacian,
                                  whole_domain_example2_f)
from tests.solver_oracles import cold_reference_energy
from tests.test_contraction import oscillating_dirichlet_problem


def test_example1_solution_point_values():
    p = example1()
    assert np.isclose(p.g(1.0, 0.0), 0.0)
    assert np.isclose(p.g(0.5, 0.5), 0.0)
    assert np.isclose(p.g(1.5, 0.0), 0.21953489189183562)
    assert np.allclose(p.f(np.zeros(3), np.zeros(3)), -2.0)


def test_example1_gradient_continuous_at_contact_circle():
    eps = 1e-8
    go = example1_gradient(1.0 + eps, 0.0)
    gi = example1_gradient(1.0 - eps, 0.0)
    assert abs(go[0] - gi[0]) < 1e-6 and abs(go[1] - gi[1]) < 1e-6


def test_example1_gradient_is_the_gradient_of_g():
    # example 1's g is its exact solution on the whole square; points
    # inside and outside the contact circle r = 1, away from it
    u = example1().g
    h = 1e-6
    for x, y in [(0.2, -0.3), (-0.5, 0.6), (1.2, 0.3), (-1.1, 0.8),
                 (0.9, -1.4)]:
        fd = ((u(x + h, y) - u(x - h, y)) / (2 * h),
              (u(x, y + h) - u(x, y - h)) / (2 * h))
        assert np.allclose(example1_gradient(x, y), fd, rtol=0, atol=1e-6)


def test_example1_solution_solves_pde_outside_contact():
    # -Laplace(u) = f = -2 where u > 0, checked by finite differences
    p = example1()
    h = 1e-5
    for x, y in [(1.2, 0.3), (-1.1, 0.8), (0.9, 1.0)]:
        lap = (p.g(x + h, y) + p.g(x - h, y) + p.g(x, y + h)
               + p.g(x, y - h) - 4.0 * p.g(x, y)) / h ** 2
        assert abs(lap - 2.0) < 1e-5


def test_example1_exact_energy_frozen_value():
    # cross-checked against independent adaptive 2D quadrature of the
    # closed-form energy density (agreement 8e-12)
    assert np.isclose(example1().exact_energy, 3.980995758125694,
                      atol=1e-10)


def test_example1_exact_energy_matches_radial_quadrature():
    # the closed form against the 80-point radial quadrature it replaced
    assert abs(example1().exact_energy - radial_example1_energy()) <= 1e-14


def test_transformation_is_identity_without_obstacle():
    p = example1()
    tp = to_zero_obstacle(p)
    assert tp.g is p.g and tp.f is p.f and tp.chi is None


def test_transformation_returns_a_problem_without_obstacle():
    p = example1()
    assert to_zero_obstacle(p) is p


@pytest.mark.parametrize("g,message", [
    # g < 0 only where |x - 0.3| < 0.0083, on the bottom and top edges
    ("1 - 2*exp(-10000*(x - 0.3)**2)", "g < 0 on the boundary"),
    ("sin(7*x)", "g < 0 on the boundary"),
    ("sqrt(x - 0.5)", "Dirichlet data g is not finite"),
])
def test_transformation_checks_g_without_obstacle(tmp_path, g, message):
    # without chi, g itself is sampled along the boundary, so data that
    # are negative or not finite between the coarse nodes are rejected
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"domain": {"type": "square"}, "f": "0*x",
                                "g": g}))
    with pytest.raises(ValueError, match=message):
        to_zero_obstacle(load_custom(str(path)))


def test_affine_obstacle_shifts_data_only():
    chi = Obstacle(value=lambda x, y: x + 1.0,
                   laplacian=lambda x, y: np.zeros_like(x))
    p = ProblemSpec(name="affine-chi", domain=Square(0, 0, 1, 1),
                    g=lambda x, y: x + 2.0,
                    f=lambda x, y: np.full_like(x, 5.0), chi=chi)
    tp = to_zero_obstacle(p)
    x = np.linspace(0.0, 1.0, 5)
    assert np.allclose(tp.f(x, x), 5.0)
    assert np.allclose(tp.g(x, np.zeros(5)), 1.0)


def test_transformation_requires_laplacian_and_feasibility():
    chi_no_lap = Obstacle(value=lambda x, y: x, laplacian=None)
    p = ProblemSpec(name="bad", domain=Square(0, 0, 1, 1),
                    g=lambda x, y: np.zeros_like(x),
                    f=lambda x, y: np.zeros_like(x), chi=chi_no_lap)
    with pytest.raises(ValueError):
        to_zero_obstacle(p)
    chi_high = Obstacle(value=lambda x, y: np.ones_like(x),
                        laplacian=lambda x, y: np.zeros_like(x))
    p2 = ProblemSpec(name="bad2", domain=Square(0, 0, 1, 1),
                     g=lambda x, y: np.zeros_like(x),
                     f=lambda x, y: np.zeros_like(x), chi=chi_high)
    with pytest.raises(ValueError):
        to_zero_obstacle(p2)


def test_example2_obstacle_laplacian_matches_finite_differences():
    rng = np.random.default_rng(0)
    xs = rng.uniform(-2.0, -1.01, 100)
    ys = rng.uniform(0.0, 2.0, 100)
    # h = 1e-4 balances truncation against roundoff (values ~ 0.1)
    h = 1e-4
    fd = ((_chi_value(xs + h, ys) - 2 * _chi_value(xs, ys)
           + _chi_value(xs - h, ys)) / h ** 2
          + (_chi_value(xs, ys + h) - 2 * _chi_value(xs, ys)
             + _chi_value(xs, ys - h)) / h ** 2)
    assert np.abs(fd - _chi_laplacian(xs, ys)).max() < 1e-6


def test_example2_obstacle_is_c1_at_seam():
    eps = 1e-9
    assert abs(_chi_value(-1.0 - eps, 0.5)) < 1e-8
    left = (_chi_value(-1.0 - eps, 0.5) - _chi_value(-1.0 - 2 * eps, 0.5))
    assert abs(left / eps) < 1e-7


def test_cutoff_polynomial_endpoints():
    d1, d2 = _gamma1_derivatives(np.array([0.25, 0.75]))
    assert np.allclose(d1, 0.0) and np.allclose(d2, 0.0)
    rb = np.array([0.0, 1.0])
    gamma1 = -6 * rb ** 5 + 15 * rb ** 4 - 10 * rb ** 3 + 1
    assert np.allclose(gamma1, [1.0, 0.0])


def test_example2_force_frozen_values():
    # frozen against an independent symbolic-derivative evaluation
    cases = [
        ((0.5, 0.0), 9.54733181475256),
        ((0.3, 0.4), 10.97501885484232),
        ((-0.5, 0.3), -1.4433515738697302),
        ((0.1, -0.6), -0.9163917971931557),
        ((1.5, 1.0), -1.0),
        ((0.1, 0.1), 0.0),
        ((0.05, -0.2), 0.0),
    ]
    for (x, y), expect in cases:
        assert np.isclose(float(_example2_f(x, y)), expect, atol=1e-12)


def test_example2_data_match_the_whole_domain_formulas():
    # the singular part of f is computed on the ring 1/4 <= r < 3/4 only
    # and the obstacle Laplacian on x < -1 only; values and signs of zero
    # stay those of one formula on all points
    rng = np.random.default_rng(8)
    xs, ys = rng.uniform(-2.0, 2.0, (2, 20000))
    t = rng.uniform(-np.pi, np.pi, 400)
    for r in (0.0, 0.25, 0.75, 1.25):
        xs = np.append(xs, r * np.cos(t))
        ys = np.append(ys, r * np.sin(t))
    xs = np.append(xs, np.full(400, -1.0))
    ys = np.append(ys, rng.uniform(-2.0, 2.0, 400))
    zeros = np.array([0.0, -0.0, 0.3, -0.3])
    xs = np.append(xs, np.repeat(zeros, 4))
    ys = np.append(ys, np.tile(zeros, 4))
    for fn, oracle in ((_example2_f, whole_domain_example2_f),
                       (_chi_laplacian, whole_domain_chi_laplacian)):
        value, expect = fn(xs, ys), oracle(xs, ys)
        assert np.array_equal(value, expect)
        assert np.array_equal(np.signbit(value), np.signbit(expect))
        assert np.signbit(expect).any() and not np.signbit(expect).all()
        assert np.array_equal(fn(xs, 0.5), oracle(xs, 0.5))
        for x, y in zip(xs[-16:], ys[-16:]):
            one = fn(x, y)
            assert np.shape(one) == ()
            assert one == oracle(x, y)
            assert np.signbit(one) == np.signbit(oracle(x, y))


def test_example2_transformed_boundary_data_vanish():
    tp = to_zero_obstacle(example2())
    xs = np.array([-2.0, -2.0, -1.5, 0.0, 2.0, 2.0])
    ys = np.array([0.5, 2.0, 2.0, -2.0, -1.0, 1.0])
    assert np.abs(np.asarray(tp.g(xs, ys))).max() == 0.0
    # so the Dirichlet oscillations of the shifted trace, differentiated
    # by the central difference, vanish exactly
    mesh = build_initial_mesh(LShape())
    for _ in range(3):
        mesh = refine(mesh, np.arange(mesh.num_edges))
    apx = apx_indicator(mesh, tp.g)
    assert np.abs(apx).max() == 0.0


def test_reference_energy_converges_to_exact():
    p = example1()
    ref = reference_energy(p, n_target=100000)
    assert abs(ref - p.exact_energy) < 1e-3


def test_reference_energy_trivial_and_monotone(zero_trace):
    zero = ProblemSpec(name="zero", domain=Square(0, 0, 1, 1),
                       g=zero_trace,
                       f=lambda x, y: np.zeros_like(x))
    assert reference_energy(zero, n_target=100) == 0.0
    # affine g: discrete data exact on every mesh, so deeper targets can
    # only lower the minimal energy
    prob = ProblemSpec(
        name="affine", domain=Square(0, 0, 1, 1),
        g=lambda x, y: x + y,
        f=lambda x, y: np.full_like(x, -3.0))
    coarse = reference_energy(prob, n_target=50)
    fine = reference_energy(prob, n_target=800)
    assert fine <= coarse + 1e-12


def test_reference_levels_seed_new_nodes_from_their_parent_edges():
    with recording(problems, "solve_obstacle") as calls:
        reference_energy(example2(), n_target=20000)
    assert len(calls) == 6 and calls[0][0][4] is None
    for (_, coarse), (args, _) in zip(calls, calls[1:]):
        mesh, warm, old = args[0], args[4], len(coarse.active)
        assert warm.dtype == bool and warm.shape == (mesh.num_nodes,)
        assert np.array_equal(warm[:old], coarse.active)
        a, b = mesh.node_parents[old:].T
        assert np.array_equal(warm[old:], coarse.active[a] & coarse.active[b])
    assert warm[old:].any() and not warm[old:].all()


@pytest.mark.parametrize("problem", [example1, example2,
                                     oscillating_dirichlet_problem])
def test_seeded_reference_energy_matches_the_cold_started_loop(problem):
    # measured relative gaps: 1.0e-15 (example 1), 0 (example 2 and the
    # oscillating-g problem)
    cold = cold_reference_energy(problem(), n_target=50000)
    assert abs(reference_energy(problem(), n_target=50000) - cold) \
        <= 1e-13 * abs(cold)


def test_reference_energy_rejects_a_target_below_the_coarse_mesh():
    with pytest.raises(ValueError, match="6-element coarse mesh"):
        reference_energy(example2(), n_target=5)
    assert reference_energy(example2(), n_target=6) == 0.0


def test_load_custom_round_trip(tmp_path):
    cfg = {
        "name": "bump",
        "domain": {"type": "square", "xmin": 0, "ymin": 0,
                   "xmax": 1, "ymax": 1},
        "f": "-2.0 + 0*x",
        "g": "x**2 + sin(y)",
        "chi": {"value": "0*x", "laplacian": "0*x"},
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(cfg))
    p = load_custom(path)
    assert p.name == "bump"
    assert isinstance(p.domain, Square)
    assert np.isclose(p.g(0.5, 0.0), 0.25)
    assert np.allclose(p.f(np.zeros(2), np.zeros(2)), -2.0)
    from obstacle_afem import run_adaptive
    records = run_adaptive(p, 0.5, max_elements=100).records
    assert records[-1].n_elements >= 100


def test_load_custom_rejects_unknown_domain(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"domain": {"type": "disk"},
                                "f": "0*x", "g": "0*x"}))
    with pytest.raises(ValueError):
        load_custom(path)


@pytest.mark.parametrize("expr", [
    "[c for c in ().__class__.__base__.__subclasses__()][0] + x",
    "x.real",
    "__import__('os').getpid() + x",
    "sin(x, out=y)",
    "pi(x)",
    "lambda: x",
    "'x' + x",
], ids=["subclasses", "attribute", "import", "keyword", "call-constant",
        "lambda", "string"])
def test_load_custom_rejects_expressions_outside_the_grammar(tmp_path,
                                                             expr):
    path = tmp_path / "escape.json"
    path.write_text(json.dumps({"domain": {"type": "square"},
                                "f": "0*x", "g": expr}))
    with pytest.raises(ValueError):
        load_custom(path)


def test_load_custom_accepts_the_whole_grammar(tmp_path):
    expr = ("where((x > 0.5) & (y <= 0.5) | (r == 0), -x ** 2 // 1, "
            "+y % 2) + maximum(sin(pi * x), 0.25) / 2 - (x != y) * 1e-3")
    path = tmp_path / "grammar.json"
    path.write_text(json.dumps({"domain": {"type": "square"},
                                "f": expr, "g": "0*x"}))
    f = load_custom(path).f
    x, y = np.array([0.75, 0.25, 0.0]), np.array([0.25, 0.75, 0.0])
    r = np.hypot(x, y)
    want = (np.where((x > 0.5) & (y <= 0.5) | (r == 0), -x ** 2 // 1,
                     +y % 2) + np.maximum(np.sin(np.pi * x), 0.25) / 2
            - (x != y) * 1e-3)
    assert np.array_equal(f(x, y), want)


@pytest.mark.parametrize("call", [
    "sin({})", "cos({})", "tan({})", "exp({})", "log({})", "sqrt({})",
    "hypot({}, y > 0)", "arctan2(y > 0, {})",
])
def test_float_functions_of_a_comparison_run_in_float64(call):
    # numpy evaluates sin of a boolean array in float16: 0.84130859375
    # at x = 1, not sin 1; where a float16 value is exact (sqrt, log), a
    # constant added to it is rounded to float16
    x = np.array([1.0, 0.0, 0.75, -2.0, 0.5, 3.0])
    y = np.array([0.3, -1.0, 2.0, 0.5, -0.25, 1e-3])
    for form in ("{}", "{} + 0.1"):
        got = _compile_expr(form.format(call.format("x > 0.5")))(x, y)
        want = _compile_expr(form.format(call.format("1.0*(x > 0.5)")))(x, y)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_other_functions_of_a_comparison_keep_their_values():
    x = np.array([1.0, 0.0, -2.0])
    for expr, want in [("abs(x > 0.5)", [1.0, 0.0, 0.0]),
                       ("maximum(x > 0.5, x < -1)", [1.0, 0.0, 1.0]),
                       ("minimum(x > 0.5, x < 2)", [1.0, 0.0, 0.0]),
                       ("where(x > 0.5, x < 2, x > -3)", [1.0, 1.0, 1.0])]:
        assert np.array_equal(_compile_expr(expr)(x, x), want)
