import numpy as np
import pytest

from obstacle_afem import (BoundaryTrace, Square, build_initial_mesh,
                           refine)
from obstacle_afem.boundary import apx_indicator, interpolate_boundary
from tests.edge_oracles import check_trace_continuity


def test_nodal_interpolation_constant(unit_square_mesh):
    g = BoundaryTrace(lambda x, y: np.full_like(x, 3.25))
    gl = interpolate_boundary(g, unit_square_mesh)
    assert np.allclose(gl[unit_square_mesh.boundary_node_ids()], 3.25)


def test_nodal_interpolation_matches_datum_at_nodes(lshape_mesh):
    mesh = refine(lshape_mesh, np.arange(lshape_mesh.num_edges))
    g = BoundaryTrace(lambda x, y: x ** 2 - y)
    gl = interpolate_boundary(g, mesh)
    ids = mesh.boundary_node_ids()
    assert np.allclose(gl[ids],
                       mesh.nodes[ids, 0] ** 2 - mesh.nodes[ids, 1])


def test_interpolant_value_frozen_corner():
    # trace of the radially symmetric solution at the (1.5, 1.5) corner
    mesh = build_initial_mesh(Square(-1.5, -1.5, 1.5, 1.5))
    from obstacle_afem import example1
    gl = interpolate_boundary(example1().g, mesh)
    corner = int(np.nonzero((mesh.nodes == [1.5, 1.5]).all(axis=1))[0][0])
    assert np.isclose(gl[corner], 0.9979613016118631, atol=1e-12)


def test_interpolant_is_nan_exactly_at_interior_nodes(unit_square_mesh):
    mesh = refine(unit_square_mesh, np.arange(unit_square_mesh.num_edges))
    g = BoundaryTrace(lambda x, y: x)
    gl = interpolate_boundary(g, mesh)
    interior = ~np.isin(np.arange(mesh.num_nodes), mesh.boundary_node_ids())
    assert gl.shape == (mesh.num_nodes,) and gl.dtype == float
    assert interior.any()
    assert np.array_equal(np.isnan(gl), interior)


def test_nonnegative_datum_gives_nonnegative_interpolant(lshape_mesh):
    g = BoundaryTrace(lambda x, y: (x + y) ** 2)
    gl = interpolate_boundary(g, lshape_mesh)
    assert (gl[lshape_mesh.boundary_node_ids()] >= 0.0).all()


def test_apx_vanishes_for_affine_data(unit_square_mesh):
    g = BoundaryTrace(lambda x, y: 2.0 * x - y + 1.0,
                      lambda x, y: (np.full_like(x, 2.0),
                                    np.full_like(x, -1.0)))
    gl = interpolate_boundary(g, unit_square_mesh)
    for eid in unit_square_mesh.boundary_edge_ids():
        assert apx_indicator(unit_square_mesh, g, gl, eid) < 1e-28


def test_apx_quadratic_closed_form(unit_square_mesh):
    # g = x^2 along the bottom edge of length 1: indicator h^4/3 = 1/3
    g = BoundaryTrace(lambda x, y: x ** 2,
                      lambda x, y: (2.0 * x, np.zeros_like(x)))
    mesh = unit_square_mesh
    gl = interpolate_boundary(g, mesh)
    bottom = [e for e in mesh.boundary_edge_ids()
              if np.allclose(mesh.nodes[mesh.edges[e], 1], 0.0)][0]
    assert np.isclose(apx_indicator(mesh, g, gl, bottom), 1.0 / 3.0,
                      atol=1e-14)


def test_apx_finite_difference_fallback_matches_analytic(unit_square_mesh):
    g_an = BoundaryTrace(lambda x, y: np.sin(x) + y ** 3,
                         lambda x, y: (np.cos(x), 3.0 * y ** 2))
    g_fd = BoundaryTrace(lambda x, y: np.sin(x) + y ** 3)
    gl = interpolate_boundary(g_an, unit_square_mesh)
    for eid in unit_square_mesh.boundary_edge_ids():
        a = apx_indicator(unit_square_mesh, g_an, gl, eid)
        b = apx_indicator(unit_square_mesh, g_fd, gl, eid)
        assert np.isclose(a, b, rtol=1e-7, atol=1e-12)


def test_apx_rejects_interior_edge(unit_square_mesh):
    g = BoundaryTrace(lambda x, y: x)
    gl = interpolate_boundary(g, unit_square_mesh)
    with pytest.raises(ValueError):
        apx_indicator(unit_square_mesh, g, gl,
                      unit_square_mesh.interior_edge_ids()[0])


def test_apx_total_decays_by_factor_eight_for_quadratic(unit_square_mesh):
    g = BoundaryTrace(lambda x, y: x ** 2,
                      lambda x, y: (2.0 * x, np.zeros_like(x)))
    mesh = unit_square_mesh
    gl = interpolate_boundary(g, mesh)
    coarse = sum(apx_indicator(mesh, g, gl, e)
                 for e in mesh.boundary_edge_ids())
    fine_mesh = refine(mesh, np.arange(mesh.num_edges))
    gl_f = interpolate_boundary(g, fine_mesh)
    fine = sum(apx_indicator(fine_mesh, g, gl_f, e)
               for e in fine_mesh.boundary_edge_ids())
    assert np.isclose(fine, coarse / 8.0, atol=1e-14)


def test_apx_reduction_under_marking(unit_square_mesh):
    # halving an edge drops its indicator sum well below half of the parent
    g = BoundaryTrace(lambda x, y: x ** 2,
                      lambda x, y: (2.0 * x, np.zeros_like(x)))
    mesh = unit_square_mesh
    gl = interpolate_boundary(g, mesh)
    parent = {int(e): apx_indicator(mesh, g, gl, e)
              for e in mesh.boundary_edge_ids()}
    fine_mesh = refine(mesh, np.arange(mesh.num_edges))
    gl_f = interpolate_boundary(g, fine_mesh)
    total_f = sum(apx_indicator(fine_mesh, g, gl_f, e)
                  for e in fine_mesh.boundary_edge_ids())
    total_c = sum(parent.values())
    assert total_f <= total_c - 0.5 * total_c + 1e-14


def test_continuity_check_accepts_continuous_data(lshape_mesh):
    g = BoundaryTrace(lambda x, y: np.sin(x) * np.cos(y))
    assert check_trace_continuity(g, lshape_mesh) < 1e-10


def test_continuity_check_rejects_jump(unit_square_mesh):
    g = BoundaryTrace(lambda x, y:
                      np.where(np.asarray(y) > 0.5, 1.0, 0.0)
                      + 0.0 * np.asarray(x))
    with pytest.raises(ValueError):
        check_trace_continuity(g, refine(unit_square_mesh,
                                         np.arange(5)))


def test_shifted_trace(unit_square_mesh):
    g = BoundaryTrace(lambda x, y: x + 2.0,
                      lambda x, y: (np.ones_like(x), np.zeros_like(x)))
    shifted = g.shifted(lambda x, y: x, lambda x, y: (np.ones_like(x),
                                                      np.zeros_like(x)))
    x = np.array([0.0, 0.5, 1.0])
    assert np.allclose(shifted(x, np.zeros(3)), 2.0)
    d = shifted.arc_derivative(x, np.zeros(3), (1.0, 0.0), 1.0)
    assert np.allclose(d, 0.0)
