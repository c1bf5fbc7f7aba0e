import numpy as np
import pytest

from obstacle_afem import Square, build_initial_mesh, refine
from obstacle_afem.boundary import apx_indicator, interpolate_boundary
from obstacle_afem.mesh import Mesh
from tests.edge_oracles import check_trace_continuity, exact_trace
from tests.mesh_oracles import edge_lengths


def test_nodal_interpolation_constant(unit_square_mesh):
    g = lambda x, y: np.full_like(x, 3.25)
    gl = interpolate_boundary(g, unit_square_mesh)
    assert np.allclose(gl[unit_square_mesh.boundary_node_ids()], 3.25)


def test_nodal_interpolation_matches_datum_at_nodes(lshape_mesh):
    mesh = refine(lshape_mesh, np.arange(lshape_mesh.num_edges))
    g = lambda x, y: x ** 2 - y
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
    g = lambda x, y: x
    gl = interpolate_boundary(g, mesh)
    interior = ~np.isin(np.arange(mesh.num_nodes), mesh.boundary_node_ids())
    assert gl.shape == (mesh.num_nodes,) and gl.dtype == float
    assert interior.any()
    assert np.array_equal(np.isnan(gl), interior)


def test_nonnegative_datum_gives_nonnegative_interpolant(lshape_mesh):
    g = lambda x, y: (x + y) ** 2
    gl = interpolate_boundary(g, lshape_mesh)
    assert (gl[lshape_mesh.boundary_node_ids()] >= 0.0).all()


def test_apx_vanishes_for_affine_data(unit_square_mesh):
    g = lambda x, y: 2.0 * x - y + 1.0
    with exact_trace(lambda x, y: (np.full_like(x, 2.0),
                                   np.full_like(x, -1.0))):
        apx = apx_indicator(unit_square_mesh, g)
    assert (apx < 1e-28).all()


def test_apx_is_an_edge_array_zero_on_interior_edges(lshape_mesh):
    mesh = refine(lshape_mesh, np.arange(lshape_mesh.num_edges))
    apx = apx_indicator(mesh, lambda x, y: np.sin(x) + y ** 2)
    assert apx.shape == (mesh.num_edges,) and apx.dtype == float
    assert (apx[mesh.interior_edge_ids()] == 0.0).all()
    assert (apx[mesh.boundary_edge_ids()] > 0.0).all()
    # a datum that returns one number for all points
    assert (apx_indicator(mesh, lambda x, y: 2.0) == 0.0).all()


def test_apx_quadratic_closed_form(unit_square_mesh):
    # g = x^2 along the bottom edge of length 1: indicator h^4/3 = 1/3
    g = lambda x, y: x ** 2
    mesh = unit_square_mesh
    bottom = [e for e in mesh.boundary_edge_ids()
              if np.allclose(mesh.nodes[mesh.edges[e], 1], 0.0)][0]
    with exact_trace(lambda x, y: (2.0 * x, np.zeros_like(x))):
        apx = apx_indicator(mesh, g)
    assert np.isclose(apx[bottom], 1.0 / 3.0, atol=1e-14)


def test_apx_takes_a_plain_function(unit_square_mesh):
    # the same closed form h^4/3 = 1/3 with g' by the central difference
    mesh = unit_square_mesh
    g = lambda x, y: x ** 2
    bottom = [e for e in mesh.boundary_edge_ids()
              if np.allclose(mesh.nodes[mesh.edges[e], 1], 0.0)][0]
    assert np.isclose(apx_indicator(mesh, g)[bottom], 1.0 / 3.0,
                      rtol=1e-8, atol=0.0)


def test_apx_quadratic_closed_form_on_a_slanted_edge():
    # g = x^2 on the hypotenuse of length sqrt(2): g'' = 1 along the edge,
    # indicator h^4/12 = 1/3
    mesh = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                np.array([[0, 1, 2]]), np.array([1]))
    g = lambda x, y: x ** 2
    hyp = [e for e in mesh.boundary_edge_ids()
           if set(mesh.edges[e]) == {1, 2}][0]
    with exact_trace(lambda x, y: (2.0 * x, np.zeros_like(x))):
        apx = apx_indicator(mesh, g)
    assert np.isclose(apx[hyp], 1.0 / 3.0, atol=1e-14)


def test_apx_finite_difference_fallback_matches_analytic(unit_square_mesh):
    g = lambda x, y: np.sin(x) + y ** 3
    # the boundary edges at node 0 bisected 13 times: edges down to
    # 2^-13, where a step proportional to h alone loses the difference
    # to round-off
    graded = unit_square_mesh
    for _ in range(13):
        b = graded.boundary_edge_ids()
        graded = refine(graded, b[(graded.edges[b] == 0).any(axis=1)])
    assert graded.num_triangles == 54
    assert edge_lengths(graded)[graded.boundary_edge_ids()].min() < 1.3e-4
    for mesh, rtol, atol in [(unit_square_mesh, 1e-7, 1e-12),
                             (graded, 1e-4, 0.0)]:
        with exact_trace(lambda x, y: (np.cos(x), 3.0 * y ** 2)):
            analytic = apx_indicator(mesh, g)
        assert np.allclose(apx_indicator(mesh, g), analytic,
                           rtol=rtol, atol=atol)


def test_apx_total_decays_by_factor_eight_for_quadratic(unit_square_mesh):
    g = lambda x, y: x ** 2
    mesh = unit_square_mesh
    fine_mesh = refine(mesh, np.arange(mesh.num_edges))
    with exact_trace(lambda x, y: (2.0 * x, np.zeros_like(x))):
        coarse = apx_indicator(mesh, g).sum()
        fine = apx_indicator(fine_mesh, g).sum()
    assert np.isclose(fine, coarse / 8.0, atol=1e-14)


def test_apx_reduction_under_marking(unit_square_mesh):
    # halving an edge drops its indicator sum well below half of the parent
    g = lambda x, y: x ** 2
    mesh = unit_square_mesh
    fine_mesh = refine(mesh, np.arange(mesh.num_edges))
    with exact_trace(lambda x, y: (2.0 * x, np.zeros_like(x))):
        total_c = apx_indicator(mesh, g).sum()
        total_f = apx_indicator(fine_mesh, g).sum()
    assert total_f <= total_c - 0.5 * total_c + 1e-14


def test_continuity_check_accepts_continuous_data(lshape_mesh):
    g = lambda x, y: np.sin(x) * np.cos(y)
    assert check_trace_continuity(g, lshape_mesh) < 1e-10


def test_continuity_check_rejects_jump(unit_square_mesh):
    g = lambda x, y: (np.where(np.asarray(y) > 0.5, 1.0, 0.0)
                      + 0.0 * np.asarray(x))
    with pytest.raises(ValueError):
        check_trace_continuity(g, refine(unit_square_mesh,
                                         np.arange(5)))
