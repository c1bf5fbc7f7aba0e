import numpy as np
import pytest

from obstacle_afem import (BoundaryTrace, Square, build_initial_mesh,
                           refine)
from obstacle_afem.boundary import interpolate_boundary
from obstacle_afem.estimator import assemble_indicators, dump_indicators
from obstacle_afem.mesh import Mesh
from tests.edge_oracles import (apx_indicator, boundary_residual,
                                interior_osc, jump_indicator)


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
    analytic = BoundaryTrace(lambda x, y: x ** 2 + np.cos(y),
                             lambda x, y: (2.0 * x, -np.sin(y)))
    fallback = BoundaryTrace(lambda x, y: x ** 2 + np.cos(y))
    for g in (analytic, fallback):
        gl = interpolate_boundary(g, mesh)
        ind = assemble_indicators(mesh, v, f, g, gl)
        per_edge = [apx_indicator(mesh, g, gl, eid) for eid in bdry]
        assert np.array_equal(ind.apx2[bdry], per_edge)
    for eid in mesh.interior_edge_ids()[::5]:
        assert np.isclose(ind.eta2[eid], jump_indicator(mesh, v, eid),
                          rtol=1e-12)
        assert np.isclose(ind.osc2[eid], interior_osc(mesh, f, eid),
                          rtol=1e-12)
    for eid in bdry[::3]:
        assert np.isclose(ind.osc2[eid], boundary_residual(mesh, f, eid),
                          rtol=1e-12)
        assert ind.apx2[eid] >= 0.0
        assert ind.eta2[eid] == 0.0


def test_totals_are_consistent(unit_square_mesh, zero_trace):
    mesh = refine(unit_square_mesh, np.arange(unit_square_mesh.num_edges))
    gl = interpolate_boundary(zero_trace, mesh)
    v = np.zeros(mesh.num_nodes)
    ind = assemble_indicators(mesh, v, lambda x, y: x * y, zero_trace, gl)
    assert (ind.contributions >= 0.0).all()
    assert np.isclose(ind.rho2,
                      ind.eta2.sum() + ind.osc2.sum() + ind.apx2.sum())
    assert np.isclose(ind.rho_tilde2, ind.rho2 - ind.apx2_total)
    assert ind.rho_tilde <= ind.rho


def test_zero_data_gives_zero_estimator(unit_square_mesh, zero_trace):
    gl = interpolate_boundary(zero_trace, unit_square_mesh)
    ind = assemble_indicators(unit_square_mesh,
                              np.zeros(unit_square_mesh.num_nodes),
                              lambda x, y: np.zeros_like(x), zero_trace, gl)
    assert ind.rho == 0.0


def test_coarse_solution_estimator_dominated_by_boundary_osc():
    from obstacle_afem import (assemble_load, assemble_stiffness, example1,
                               solve_obstacle)
    p = example1()
    mesh = build_initial_mesh(p.domain)
    gl = interpolate_boundary(p.g, mesh)
    sol = solve_obstacle(mesh, assemble_stiffness(mesh),
                         assemble_load(mesh, p.f), gl)
    ind = assemble_indicators(mesh, sol.values, p.f, p.g, gl)
    assert ind.rho2 > 0.0
    # constant force kills interior oscillations; the level-0 solution is
    # piecewise affine with no gradient jump across the single diagonal
    assert ind.eta2.sum() < 1e-20
    assert ind.osc2.sum() > ind.apx2.sum()


def test_dump_indicators_format(tmp_path, unit_square_mesh, zero_trace):
    gl = interpolate_boundary(zero_trace, unit_square_mesh)
    ind = assemble_indicators(unit_square_mesh,
                              np.zeros(unit_square_mesh.num_nodes),
                              lambda x, y: np.ones_like(x), zero_trace, gl)
    path = tmp_path / "ind.csv"
    dump_indicators(ind, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "edge_id,kind,eta2,osc2,apx2"
    assert len(lines) == 1 + unit_square_mesh.num_edges
    kinds = [line.split(",")[1] for line in lines[1:]]
    assert kinds.count("interior") == 1 and kinds.count("boundary") == 4
