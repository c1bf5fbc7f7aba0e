import contextlib

import numpy as np
import pytest

from obstacle_afem import (LShape, Square, build_initial_mesh, example1,
                           example2, quadrature, refine, run_adaptive,
                           to_zero_obstacle)
from obstacle_afem.boundary import interpolate_boundary
from obstacle_afem.estimator import assemble_indicators, dump_indicators
from obstacle_afem.mesh import Mesh
from obstacle_afem.quadrature import TRI_WEIGHTS, triangle_points
from tests.edge_oracles import (apx_indicator, boundary_residual, exact_trace,
                                interior_osc, jump_indicator,
                                row_dump_indicators, whole_table_indicators)
from tests.test_fem import oracle_meshes, set_block  # noqa: F401


def square_pair():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    mesh = Mesh(nodes, tris, np.array([2, 0]))
    diag = int(mesh.interior_edge_ids()[0])
    return mesh, diag


def test_jump_vanishes_for_affine(unit_square_mesh):
    v = (3.0 * unit_square_mesh.nodes[:, 0]
         - unit_square_mesh.nodes[:, 1] + 0.5)
    for eid in unit_square_mesh.interior_edge_ids():
        assert jump_indicator(unit_square_mesh, v, eid) < 1e-26


def test_jump_closed_form_across_diagonal():
    mesh, diag = square_pair()
    # values (0, 1, 2, 0): gradients (1,1) and (2,0), normal jump sqrt(2),
    # h^2 = 2, indicator 4
    assert np.isclose(jump_indicator(mesh, np.array([0.0, 1.0, 2.0, 0.0]),
                                     diag), 4.0)
    # hat function of the off-diagonal vertex 1: same value by symmetry
    assert np.isclose(jump_indicator(mesh, np.array([0.0, 1.0, 0.0, 0.0]),
                                     diag), 4.0)


def test_jump_orientation_independent():
    mesh, diag = square_pair()
    flipped = Mesh(mesh.nodes, mesh.triangles[::-1].copy(),
                   mesh.ref_edge[::-1].copy())
    v = np.array([0.2, -1.0, 0.7, 2.0])
    d2 = int(flipped.interior_edge_ids()[0])
    assert np.isclose(jump_indicator(mesh, v, diag),
                      jump_indicator(flipped, v, d2))


def test_jump_rejects_boundary_edge(unit_square_mesh):
    with pytest.raises(ValueError):
        jump_indicator(unit_square_mesh, np.zeros(4),
                       unit_square_mesh.boundary_edge_ids()[0])


def test_interior_osc_constant_force():
    mesh, diag = square_pair()
    f = lambda x, y: np.full_like(x, -2.0)
    assert interior_osc(mesh, f, diag) == 0.0


def test_interior_osc_linear_closed_form():
    # f = x over the unit square patch: |patch| * var = 1 * 1/12
    mesh, diag = square_pair()
    assert np.isclose(interior_osc(mesh, lambda x, y: x, diag),
                      1.0 / 12.0, atol=1e-15)


def test_interior_osc_scaling():
    mesh, diag = square_pair()
    half = Mesh(0.5 * mesh.nodes, mesh.triangles, mesh.ref_edge)
    d2 = int(half.interior_edge_ids()[0])
    # shrinking by 1/2: patch area x 1/4, squared L2 norm of (x - mean)
    # x 1/16, so the indicator scales by 1/64
    ratio = (interior_osc(half, lambda x, y: x, d2)
             / interior_osc(mesh, lambda x, y: x, diag))
    assert np.isclose(ratio, 1.0 / 64.0)
    # closed form on the scaled patch: |patch| * ||x - 1/4||^2
    assert np.isclose(interior_osc(half, lambda x, y: x, d2),
                      0.25 * (1.0 / 12.0) * 0.25 ** 2, atol=1e-16)


def test_boundary_residual_constant_force():
    mesh, _ = square_pair()
    eid = int(mesh.boundary_edge_ids()[0])
    f = lambda x, y: np.full_like(x, -2.0)
    # |T| * ||f||^2 = A * 4A with A = 1/2
    assert np.isclose(boundary_residual(mesh, f, eid), 1.0)
    assert boundary_residual(mesh, lambda x, y: np.zeros_like(x), eid) == 0.0


def test_per_edge_helpers_match_vectorized_assembly():
    mesh = build_initial_mesh(Square(-1.0, -1.0, 1.0, 1.0))
    for _ in range(3):
        mesh = refine(mesh, np.arange(mesh.num_edges))
    rng = np.random.default_rng(8)
    v = rng.normal(size=mesh.num_nodes)
    f = lambda x, y: np.sin(x) + y ** 2
    bdry = mesh.boundary_edge_ids()
    g = lambda x, y: x ** 2 + np.cos(y)
    gl = interpolate_boundary(g, mesh)
    analytic = exact_trace(lambda x, y: (2.0 * x, -np.sin(y)))
    for seam in (analytic, contextlib.nullcontext()):
        with seam:
            ind = assemble_indicators(mesh, v, f, g)
            per_edge = [apx_indicator(mesh, g, gl, eid) for eid in bdry]
        assert np.array_equal(ind.apx2[bdry], per_edge)
    # example 1's trace, through log and where: g at each edge's ends
    # gives the slope that g_l gives
    g1 = example1().g
    gl1 = interpolate_boundary(g1, mesh)
    assert np.array_equal(assemble_indicators(mesh, v, f, g1).apx2[bdry],
                          [apx_indicator(mesh, g1, gl1, e) for e in bdry])
    # and example 2's shifted f with its discrete solution on an adaptive
    # L-shape mesh, graded towards the corner and the free boundary
    shifted = to_zero_obstacle(example2())
    result = run_adaptive(example2(), 0.5, max_elements=4000)
    graded = result.mesh
    cases = [(mesh, v, f, ind),
             (graded, result.solution.values, shifted.f,
              assemble_indicators(graded, result.solution.values, shifted.f,
                                  shifted.g))]
    for mesh, v, f, ind in cases:
        for eid in mesh.interior_edge_ids()[::5]:
            assert np.isclose(ind.eta2[eid], jump_indicator(mesh, v, eid),
                              rtol=1e-12)
            assert np.isclose(ind.osc2[eid], interior_osc(mesh, f, eid),
                              rtol=1e-12)
        for eid in mesh.boundary_edge_ids()[::3]:
            assert np.isclose(ind.osc2[eid],
                              boundary_residual(mesh, f, eid), rtol=1e-12)
            assert ind.apx2[eid] >= 0.0
            assert ind.eta2[eid] == 0.0


def test_indicators_evaluate_f_one_quadrature_point_at_a_time():
    mesh = build_initial_mesh(LShape())
    for _ in range(3):
        mesh = refine(mesh, np.arange(mesh.num_edges))
    shifted = to_zero_obstacle(example2())
    f = shifted.f
    shapes = []

    def recorded(x, y):
        shapes.append((np.shape(x), np.shape(y)))
        return f(x, y)

    v = np.random.default_rng(3).normal(size=mesh.num_nodes)
    ind = assemble_indicators(mesh, v, recorded, shifted.g)
    m = mesh.num_triangles
    assert shapes == [((m,), (m,))] * len(TRI_WEIGHTS)
    # the same oscillations as one evaluation of f on all points at once
    x, y = (c.T for c in triangle_points(mesh, slice(None)))
    fv = np.asarray(f(x, y), dtype=float)
    areas = mesh.areas
    mean = fv @ TRI_WEIGHTS
    dev2 = areas * ((fv - mean[:, None]) ** 2 @ TRI_WEIGHTS)
    expected = np.zeros(mesh.num_edges)
    interior = mesh.interior_edge_ids()
    triangles = mesh.edge_triangles()
    tp, tm = triangles[interior, 0], triangles[interior, 1]
    expected[interior] = (
        (areas[tp] + areas[tm]) * (dev2[tp] + dev2[tm])
        + areas[tp] * areas[tm] * (mean[tp] - mean[tm]) ** 2)
    bdry = mesh.boundary_edge_ids()
    tb = triangles[bdry, 0]
    expected[bdry] = areas[tb] * (dev2[tb] + areas[tb] * mean[tb] ** 2)
    assert np.array_equal(ind.osc2, expected)


@pytest.mark.parametrize("block", [None, 2, 3, 7, "remainder-one"])
def test_blocked_indicators_match_the_whole_table_form(
        oracle_meshes, monkeypatch, block):
    shifted = to_zero_obstacle(example2())
    g = lambda x, y: x ** 2 + np.cos(y)
    rng = np.random.default_rng(5)
    for mesh in oracle_meshes:
        set_block(monkeypatch, block, len(mesh.interior_edge_ids()))
        v = rng.normal(size=mesh.num_nodes)
        # f only enters through each triangle's mean and deviation, one
        # block of rows at a time: one cheap f shows the blocks' bits,
        # example 2's f runs in two cases
        fs = [lambda x, y: np.sin(7.0 * x) - y]
        if block in (None, "remainder-one"):
            fs.append(shifted.f)
        for f in fs:
            ind = assemble_indicators(mesh, v, f, g)
            want = whole_table_indicators(mesh, v, f, g)
            for got, ref in zip((ind.eta2, ind.osc2, ind.apx2), want):
                assert np.array_equal(got.view(np.uint64),
                                      ref.view(np.uint64))


def test_totals_are_consistent(unit_square_mesh, zero_trace):
    mesh = refine(unit_square_mesh, np.arange(unit_square_mesh.num_edges))
    v = np.zeros(mesh.num_nodes)
    ind = assemble_indicators(mesh, v, lambda x, y: x * y, zero_trace)
    assert (ind.contributions >= 0.0).all()
    assert np.isclose(ind.rho2,
                      ind.eta2.sum() + ind.osc2.sum() + ind.apx2.sum())
    assert np.isclose(ind.rho_tilde ** 2, ind.rho2 - ind.apx2_total)
    assert ind.rho_tilde <= ind.rho


def test_zero_data_gives_zero_estimator(unit_square_mesh, zero_trace):
    ind = assemble_indicators(unit_square_mesh,
                              np.zeros(unit_square_mesh.num_nodes),
                              lambda x, y: np.zeros_like(x), zero_trace)
    assert ind.rho == 0.0


def test_coarse_solution_estimator_dominated_by_boundary_osc():
    from obstacle_afem import (assemble_load, assemble_stiffness, example1,
                               solve_obstacle)
    p = example1()
    mesh = build_initial_mesh(p.domain)
    gl = interpolate_boundary(p.g, mesh)
    sol = solve_obstacle(mesh, assemble_stiffness(mesh),
                         assemble_load(mesh, p.f), gl)
    ind = assemble_indicators(mesh, sol.values, p.f, p.g)
    assert ind.rho2 > 0.0
    # constant force kills interior oscillations; the level-0 solution is
    # piecewise affine with no gradient jump across the single diagonal
    assert ind.eta2.sum() < 1e-20
    assert ind.osc2.sum() > ind.apx2.sum()


@pytest.mark.parametrize("block", [None, 3, 7])
def test_dump_indicators_writes_the_row_writers_bytes(tmp_path, monkeypatch,
                                                      block):
    # the final indicators of adaptive runs on the square (g != 0, so
    # apx2 > 0) and on the L-shape, in one block of edges or in several
    results = [run_adaptive(problem, 0.5, max_elements=500)
               for problem in (example1(), example2())]
    assert (results[0].indicators.apx2 > 0).any()
    if block is not None:
        monkeypatch.setattr(quadrature, "BLOCK", block)
    for result in results:
        mesh, ind = result.mesh, result.indicators
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        dump_indicators(mesh, ind, got)
        row_dump_indicators(mesh, ind, want)
        assert got.read_bytes() == want.read_bytes()
        assert len(got.read_bytes().splitlines()) == 1 + mesh.num_edges


def test_dump_indicators_format(tmp_path, unit_square_mesh, zero_trace):
    ind = assemble_indicators(unit_square_mesh,
                              np.zeros(unit_square_mesh.num_nodes),
                              lambda x, y: np.ones_like(x), zero_trace)
    path = tmp_path / "ind.csv"
    dump_indicators(unit_square_mesh, ind, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "edge_id,kind,eta2,osc2,apx2"
    assert len(lines) == 1 + unit_square_mesh.num_edges
    kinds = [line.split(",")[1] for line in lines[1:]]
    assert kinds.count("interior") == 1 and kinds.count("boundary") == 4
