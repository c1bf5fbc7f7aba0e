import numpy as np
import pytest

from obstacle_afem import (LShape, Square, assemble_load, assemble_stiffness,
                           build_initial_mesh, energy, energy_norm_diff,
                           example1, example2, problems, prolong, quadrature,
                           reference_energy, refine, run_adaptive,
                           solve_obstacle, to_zero_obstacle)
from obstacle_afem.boundary import GAUSS_POINTS, GAUSS_WEIGHTS
from obstacle_afem.estimator import assemble_indicators
from obstacle_afem.fem import _hat_gradients, solution_gradients
from obstacle_afem.mesh import Mesh
from obstacle_afem.quadrature import TRI_BARY, TRI_WEIGHTS, triangle_points
from obstacle_afem.vi import COARSE_LIMIT, cg_solve, vcycle
from tests.conftest import random_refined_mesh, recording, traced_peak
from tests.kernel_oracles import (add_at_load, add_at_stiffness_diagonal,
                                  coo_stiffness, einsum_solution_gradients,
                                  einsum_triangle_points, hat_gradients,
                                  whole_table_load, whole_table_stiffness)
from tests.mesh_oracles import (edge_lengths, level_prolongations,
                                midpoint_prolong, vstack_prolongations)
from tests.solver_oracles import (csc_vcycle, h1_error, jacobi_cg_solve,
                                  scipy_cg_solve)


def single_triangle():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return Mesh(nodes, np.array([[0, 1, 2]]), np.array([1]))


def test_triangle_rule_weights_and_order():
    assert np.isclose(TRI_WEIGHTS.sum(), 1.0)
    assert np.allclose(TRI_BARY.sum(axis=1), 1.0)
    # exact for x^3 y^2 on the unit right triangle: value 1/420
    mesh = single_triangle()
    x, y = triangle_points(mesh, slice(None))
    val = 0.5 * np.sum(TRI_WEIGHTS * x[:, 0] ** 3 * y[:, 0] ** 2)
    assert np.isclose(val, 1.0 / 420.0, atol=1e-15)


def test_gauss_segment_exactness():
    # the 5-point rule of apx on [-1, 1] integrates every monomial up to
    # degree 9 exactly: 2 / (k + 1) for even k, 0 for odd k
    assert GAUSS_POINTS.shape == GAUSS_WEIGHTS.shape == (5,)
    for k in range(10):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert np.isclose(np.sum(GAUSS_WEIGHTS * GAUSS_POINTS ** k), exact,
                          atol=1e-15)


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


def kernel_meshes():
    """Uniformly refined L-shape and square, randomly refined ones, and
    the uniform L-shape with its interior nodes moved at random, so that
    its triangles are not similar and the order of a sum shows in its
    bits."""
    rng = np.random.default_rng(11)
    meshes = []
    for domain in (LShape(), Square(0.0, 0.0, 1.0, 1.0)):
        mesh = build_initial_mesh(domain)
        for _ in range(4):
            mesh = refine(mesh, np.arange(mesh.num_edges))
        meshes += [mesh, random_refined_mesh(rng, domain, max_nodes=400)]
    uniform = meshes[0]
    nodes = uniform.nodes.copy()
    inner = np.setdiff1d(np.arange(uniform.num_nodes),
                         uniform.boundary_node_ids())
    nodes[inner] += rng.uniform(-0.2, 0.2, (len(inner), 2)) \
        * edge_lengths(uniform).min()
    return meshes + [Mesh(nodes, uniform.triangles, uniform.ref_edge)]


def test_triangle_points_match_the_einsum_form():
    for mesh in kernel_meshes():
        pts = triangle_points(mesh, slice(None))
        ref = einsum_triangle_points(mesh)
        assert ref.shape == (mesh.num_triangles, 7, 2)
        scale = np.abs(mesh.nodes).max()
        for d, coord in enumerate(pts):
            assert coord.shape == (7, mesh.num_triangles)
            assert coord.flags.c_contiguous
            assert (np.abs(coord.T - ref[..., d]).max()
                    <= 2 * np.finfo(float).eps * scale)


def test_gradients_match_their_oracles_bit_for_bit(monkeypatch):
    # bit patterns, so that a zero of the other sign counts as a change
    rng = np.random.default_rng(5)
    for mesh in kernel_meshes():
        ref = hat_gradients(mesh)
        for d, g in enumerate(_hat_gradients(mesh.nodes, mesh.triangles,
                                             mesh.areas)):
            assert g.shape == (mesh.num_triangles, 3)
            assert np.array_equal(g.view(np.uint64),
                                  ref[..., d].view(np.uint64))
        for v in (np.zeros(mesh.num_nodes), rng.normal(size=mesh.num_nodes),
                  mesh.nodes[:, 0] - 2.0 * mesh.nodes[:, 1]):
            want = einsum_solution_gradients(mesh, v).view(np.uint64)
            for block in (None, 2, 3, 7, "remainder-one"):
                with monkeypatch.context() as patch:
                    set_block(patch, block, mesh.num_triangles)
                    g = solution_gradients(mesh, v)
                assert np.array_equal(g.view(np.uint64), want)


def graded_mesh():
    """The last mesh of an adaptive example 2 run, graded towards the
    re-entrant corner and the free boundary."""
    return run_adaptive(example2(), 0.5, max_elements=2000).mesh


@pytest.fixture(scope="module")
def oracle_meshes():
    """The kernel meshes, the graded mesh, and a uniform L-shape of
    several blocks of triangles and of interior edges."""
    mesh = build_initial_mesh(LShape())
    for _ in range(6):
        mesh = refine(mesh, np.arange(mesh.num_edges))
    assert len(mesh.interior_edge_ids()) > mesh.num_triangles \
        > 2 * quadrature.BLOCK
    return kernel_meshes() + [graded_mesh(), mesh]


def set_block(monkeypatch, block, n):
    """Set ``quadrature.BLOCK`` to ``block``, or for "remainder-one" to
    the least size of at least 8 that would leave one of n rows over."""
    if block == "remainder-one":
        block = min(b for b in range(8, n) if (n - 1) % b == 0)
    if block is not None:
        monkeypatch.setattr(quadrature, "BLOCK", block)


def test_blocks_are_near_equal_and_never_one_row(monkeypatch):
    for block in (2, 3, 7, 2 ** 13):
        monkeypatch.setattr(quadrature, "BLOCK", block)
        for n in [0, 1, 2, 3, 5, 8, 13, 15, 16, 17, 100, 3 * 2 ** 13 + 1]:
            rows = quadrature.blocks(n)
            sizes = [s.stop - s.start for s in rows]
            assert rows[0].start == 0 and rows[-1].stop == n
            assert all(a.stop == b.start for a, b in zip(rows, rows[1:]))
            assert len(rows) == max(1, n // block)
            assert max(sizes) - min(sizes) <= 1
            assert n == 1 or min(sizes) != 1


@pytest.mark.parametrize("block", [None, 2, 3, 7, "remainder-one"])
def test_blocked_stiffness_and_load_match_the_whole_table_forms(
        oracle_meshes, monkeypatch, block):
    # f only enters elementwise: one cheap f shows the blocks' bits
    f = lambda x, y: np.sin(7.0 * x) - y
    for mesh in oracle_meshes:
        set_block(monkeypatch, block, mesh.num_triangles)
        k, ref = assemble_stiffness(mesh), whole_table_stiffness(mesh)
        for name in ("indptr", "indices", "data"):
            got, want = getattr(k, name), getattr(ref, name)
            assert got.dtype == want.dtype
            assert np.array_equal(got.view(np.uint8), want.view(np.uint8))
        assert np.array_equal(assemble_load(mesh, f).view(np.uint64),
                              whole_table_load(mesh, f).view(np.uint64))


def test_stiffness_matches_coo_assembly_without_stored_zeros():
    meshes = kernel_meshes() + [graded_mesh()]
    jittered = meshes[4]
    for mesh in meshes:
        k, ref = assemble_stiffness(mesh), coo_stiffness(mesh)
        assert k.indices.dtype == np.int32
        assert k.has_canonical_format
        assert (k.data != 0.0).all()
        ref.eliminate_zeros()
        for name in ("indptr", "indices", "data"):
            assert getattr(k, name).dtype == getattr(ref, name).dtype
        assert np.array_equal(k.indptr, ref.indptr)
        assert np.array_equal(k.indices, ref.indices)
        bits, want = k.data.view(np.uint64), ref.data.view(np.uint64)
        on = k.indices == np.repeat(np.arange(mesh.num_nodes),
                                    np.diff(k.indptr))
        assert on.sum() == mesh.num_nodes
        assert np.array_equal(bits[~on], want[~on])
        assert np.array_equal(
            bits[on], add_at_stiffness_diagonal(mesh).view(np.uint64))
        # on NVB meshes every element entry lies in {-1/2, 0, 1/2, 1}, so
        # any order of the sums gives the same bits
        if mesh is not jittered:
            assert np.array_equal(bits, want)
    # the uniform meshes' right triangles put exact zeros in the COO sum
    uniform = meshes[0]
    assert coo_stiffness(uniform).nnz > assemble_stiffness(uniform).nnz
    # SciPy sorts a row of more than 16 unsummed entries by an unstable
    # sort, so the COO diagonal sums follow no fixed order: the diagonal
    # oracle sums in triangle order
    assert max(3 * np.bincount(mesh.triangles.ravel()).max()
               for mesh in meshes) > 16


def test_stiffness_matches_the_sparse_sum_with_an_empty_row():
    # the oracle meshes are matched in the blocked-kernel test; here an
    # adaptive mesh of the square and a node in no triangle, whose row
    # is empty as in the sum U + U' + D with its zeros eliminated
    meshes = [
        run_adaptive(example1(), 0.5, max_elements=2000).mesh,
        Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
             [[0, 1, 2]], [0])]
    for mesh in meshes:
        k, ref = assemble_stiffness(mesh), whole_table_stiffness(mesh)
        assert k.has_canonical_format and (k.data != 0.0).all()
        assert k.shape == ref.shape
        for name in ("indptr", "indices", "data"):
            got, want = getattr(k, name), getattr(ref, name)
            assert got.dtype == want.dtype, name
            assert np.array_equal(got.view(np.uint8), want.view(np.uint8))
    assert k.indptr[3] == k.indptr[4] == k.nnz


def kernel_peaks(times):
    """The uniform L-shape refined ``times`` times, and the tracemalloc
    peaks of Mesh, the stiffness, the load and the estimator on it in B
    per triangle.

    The guards on these peaks bound Python's traced allocations, not the
    benchmark's ``peak_rss_mb`` (the process's ``ru_maxrss``): a one-sum
    stiffness build passed them and still raised e2-uniform's peak RSS
    by about 2 MB, so a memory change must also show the benchmark's
    RSS."""
    mesh = build_initial_mesh(LShape())
    for _ in range(times):
        mesh = refine(mesh, np.arange(mesh.num_edges))
    shifted = to_zero_obstacle(example2())
    v = np.random.default_rng(0).normal(size=mesh.num_nodes)
    calls = {
        "Mesh": (Mesh, mesh.nodes, mesh.triangles, mesh.ref_edge,
                 mesh.node_parents, mesh.level_nodes),
        "stiffness": (assemble_stiffness, mesh),
        "load": (assemble_load, mesh, shifted.f),
        "estimator": (assemble_indicators, mesh, v, shifted.f, shifted.g),
    }
    return mesh, {name: traced_peak(*call)[1] / mesh.num_triangles
                  for name, call in calls.items()}


def test_mesh_and_stiffness_peak_memory_per_triangle():
    # guards against full-size temporaries such as the (M, 3, 2) vertex
    # table in Mesh, int64 index tables, an unsummed (M, 3, 3) CSR of the
    # element matrices, or the load's (7, M) quadrature points; three
    # blocks of triangles, whose temporaries dominate at this size
    mesh, peaks = kernel_peaks(6)
    m = mesh.num_triangles
    assert m == 24576
    # the edge key sorted in place and freed before the edge ids, the
    # endpoints written straight into the int32 edge table (84 B; 106 B
    # with divmod's two int64 arrays and their np.stack copy)
    assert peaks["Mesh"] <= 92
    # the uniform refine, four sons per triangle and their Mesh, with
    # only Mesh's inputs alive at the call (423 B per coarse triangle;
    # 513 B with the divmod pair)
    _, peak = traced_peak(refine, mesh, np.arange(mesh.num_edges))
    assert peak <= 465 * m
    # the six element entries per block and their per-node and per-edge
    # sums, freed before the three triangles are summed (107 B per
    # triangle; 138 B with the last block's temporaries alive)
    assert peaks["stiffness"] <= 118
    # one block's quadrature points, its f table and f's temporaries at
    # one point (102 B)
    assert peaks["load"] <= 120
    # one block of interior edges' jump and oscillation terms beside the
    # per-edge outputs, the gradients and each triangle's mean and
    # deviation of f (162 B); 212 B with the whole (M, 7) f table held
    # through that pass
    assert peaks["estimator"] <= 185


def test_blocked_kernels_peak_memory_per_triangle():
    # twelve blocks of triangles: measured 78, 76, 29 and 107 B per
    # triangle; the whole-table kernels read 122, 152, 191 and 267 B, the
    # estimator with the whole (M, 7) f table 153 B and with whole
    # per-edge tables besides 224 B, areas from a whole intp copy of the
    # triangles about 146 B, Mesh with the sorted key gathered beside the
    # unsorted one 124 B and with divmod's int64 endpoint pair 100 B, and
    # the stiffness with the last block's temporaries and the upper
    # triangle alive through the sums 107 B
    mesh, peaks = kernel_peaks(7)
    assert mesh.num_triangles == 98304
    # the arrays a Mesh holds: 62 B per triangle, 74 with a stored
    # (E, 2) edge-to-triangle table
    held = sum(v.nbytes for v in vars(mesh).values()
               if isinstance(v, np.ndarray))
    assert held <= 64 * mesh.num_triangles
    assert peaks["Mesh"] <= 85
    assert peaks["stiffness"] <= 94
    assert peaks["load"] <= 40
    assert peaks["estimator"] <= 125


def test_solve_peak_memory_per_node():
    # the 98,304-element level of example 2's uniform reference loop,
    # seeded as the loop seeds it: the system on the inactive nodes and
    # its V-cycle hierarchy, each level's truncated prolongation built
    # for its rows as the set-up builds it.  The solve peaks at 100 B per
    # node in the first CG; the first set-up reads 81 B with every finer
    # level's matrix and prolongation alive.  It read 107 B in the
    # coarsest level's pinv with up to 200 coarsest unknowns and 85 B
    # while the prolongation was sliced from the whole generation.  With
    # the whole prolongations of all kept levels held through the solve
    # it read 141 B
    with recording(problems, "solve_obstacle") as calls:
        reference_energy(example2(), 98304)
    args, _ = calls[-1]
    mesh = args[0]
    assert mesh.num_triangles == 98304 and args[4] is not None
    sol, peak = traced_peak(solve_obstacle, *args)
    assert sol.iterations > 1
    assert peak <= 120 * mesh.num_nodes


def test_load_matches_the_add_at_sum():
    fs = [to_zero_obstacle(example2()).f, lambda x, y: np.sin(7.0 * x) - y]
    for mesh in kernel_meshes() + [graded_mesh()]:
        for f in fs:
            assert np.array_equal(assemble_load(mesh, f).view(np.uint64),
                                  add_at_load(mesh, f).view(np.uint64))


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
        shapes.append((np.shape(x), np.shape(y),
                       x.flags.c_contiguous and y.flags.c_contiguous))
        return f(x, y)

    b = assemble_load(mesh, recorded)
    m = mesh.num_triangles
    assert shapes == [((m,), (m,), True)] * len(TRI_WEIGHTS)
    # the same load as one evaluation of f on all points at once
    x, y = (c.T for c in triangle_points(mesh, slice(None)))
    fvals = np.asarray(f(x, y), dtype=float)
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


def test_prolongations_match_the_midpoint_and_vstack_oracles():
    # bit for bit: halving is exact, and the kept products' columns are
    # sorted as the row gathers leave them
    rng = np.random.default_rng(18)
    meshes = [random_refined_mesh(rng, domain, max_nodes=400)
              for domain in (Square(), LShape()) for _ in range(3)]
    uniform = build_initial_mesh(LShape())
    for _ in range(5):
        uniform = refine(uniform, np.arange(uniform.num_edges))
        meshes.append(uniform)
    for mesh in meshes:
        got, want = level_prolongations(mesh), vstack_prolongations(mesh)
        assert len(got) == len(want)
        for p, q in zip(got, want):
            assert p.shape == q.shape
            for a, b in ((p.indptr, q.indptr), (p.indices, q.indices),
                         (p.data.view(np.uint64), q.data.view(np.uint64))):
                assert a.dtype == b.dtype and np.array_equal(a, b)
        v = rng.normal(size=mesh.level_nodes[-2])
        assert np.array_equal(prolong(v, mesh).view(np.uint64),
                              midpoint_prolong(v, mesh).view(np.uint64))


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
    assert len(level_prolongations(mesh)) == 3
    import scipy.sparse.linalg as spla
    for idx in (np.nonzero(interior)[0], np.nonzero(interior & ~active)[0]):
        sub = k[idx][:, idx]
        rhs = load[idx]
        direct = spla.spsolve(sub.tocsc(), rhs)
        x, steps = cg_solve(sub, rhs, np.zeros(len(idx)),
                            vcycle(sub, mesh, mesh.level, idx))
        assert np.abs(x - direct).max() < 1e-10
        assert 0 < steps < 20
        assert np.abs(jacobi_cg_solve(sub, rhs) - direct).max() < 1e-10


def test_cg_solve_matches_scipy_cg(unit_square_mesh):
    # the systems of test_cg_matches_direct, from a zero and a random
    # start: SciPy's CG with the same preconditioner and stopping rule
    # takes the same iterations to the same solution
    mesh = unit_square_mesh
    for _ in range(3):
        mesh = refine(mesh, np.arange(mesh.num_edges))
    k = assemble_stiffness(mesh)
    load = assemble_load(mesh, lambda x, y: np.ones_like(x))
    interior = np.ones(mesh.num_nodes, bool)
    interior[mesh.boundary_node_ids()] = False
    rng = np.random.default_rng(5)
    active = rng.random(mesh.num_nodes) < 0.3
    for idx in (np.nonzero(interior)[0], np.nonzero(interior & ~active)[0]):
        sub = k[idx][:, idx]
        rhs = load[idx]
        precond = vcycle(sub, mesh, mesh.level, idx)
        for x0 in (np.zeros(len(idx)), rng.normal(size=len(idx))):
            x, steps = cg_solve(sub, rhs, x0, precond)
            x_ref, steps_ref = scipy_cg_solve(sub, rhs, x0, precond)
            assert steps == steps_ref > 0
            assert np.abs(x - x_ref).max() < 1e-12


def _uniform_square(times):
    mesh = build_initial_mesh(Square(0.0, 0.0, 1.0, 1.0))
    for _ in range(times):
        mesh = refine(mesh, np.arange(mesh.num_edges))
    return mesh


def test_vcycle_is_symmetric_positive_definite():
    # PCG needs a symmetric positive definite preconditioner: check the
    # V-cycle on a pinv-only level, a truncated multilevel system, a
    # smoothing-only level and an adaptive mesh's PDAS system
    rng = np.random.default_rng(3)
    square = _uniform_square(6)
    fine = _uniform_square(5)
    flat = Mesh(fine.nodes, fine.triangles, fine.ref_edge)
    adaptive = run_adaptive(example2(), 0.5, max_elements=2000)
    cases = [(_uniform_square(3), None),
             (square, rng.random(square.num_nodes) < 0.3),
             (flat, None),
             (adaptive.mesh, adaptive.solution.active)]
    shapes = []  # (fine level solved by pinv, number of prolongations)
    for mesh, active in cases:
        keep = np.ones(mesh.num_nodes, bool)
        keep[mesh.boundary_node_ids()] = False
        if active is not None:
            keep &= ~active
        idx = np.flatnonzero(keep)
        sub = assemble_stiffness(mesh)[idx][:, idx]
        shapes.append((len(idx) <= COARSE_LIMIT,
                       len(level_prolongations(mesh))))
        precond = vcycle(sub, mesh, mesh.level, idx)
        r1, r2 = rng.normal(size=(2, len(idx)))
        b1, b2 = precond(r1), precond(r2)
        assert (abs(r2 @ b1 - r1 @ b2)
                <= 1e-12 * np.linalg.norm(r1) * np.linalg.norm(b2))
        assert r1 @ b1 > 0 and r2 @ b2 > 0
    assert shapes[0][0] and shapes[0][1] > 0
    assert not shapes[1][0] and shapes[1][1] > 1
    assert shapes[2] == (False, 0)
    assert not shapes[3][0] and shapes[3][1] > 1


def test_vcycle_matches_the_csc_product_form():
    # bit for bit: each set-up's prolongation built for its rows before
    # the products, the reached columns renumbered in place of a copy and
    # P'(AP) as a CSR product with sorted columns, against the whole
    # prolongations sliced after, the column copy and SciPy's CSC
    # product, on systems of all interior nodes, of random inactive sets
    # and of an adaptive PDAS solution
    rng = np.random.default_rng(21)
    square, lshape = _uniform_square(6), build_initial_mesh(LShape())
    for _ in range(5):
        lshape = refine(lshape, np.arange(lshape.num_edges))
    adaptive = run_adaptive(example2(), 0.5, max_elements=2000)
    cases = [(square, np.zeros(square.num_nodes, bool)),
             (square, rng.random(square.num_nodes) < 0.3),
             (square, rng.random(square.num_nodes) < 0.8),
             (lshape, rng.random(lshape.num_nodes) < 0.5),
             (adaptive.mesh, adaptive.solution.active)]
    for mesh, active in cases:
        keep = ~active
        keep[mesh.boundary_node_ids()] = False
        idx = np.flatnonzero(keep)
        sub = assemble_stiffness(mesh)[idx][:, idx]
        prolongations = level_prolongations(mesh)
        assert len(idx) > COARSE_LIMIT and len(prolongations) > 1
        precond = vcycle(sub, mesh, mesh.level, idx)
        oracle = csc_vcycle(sub, prolongations, idx)
        for r in rng.normal(size=(3, len(idx))):
            assert np.array_equal(precond(r).view(np.uint64),
                                  oracle(r).view(np.uint64))


def test_cg_solve_returns_zero_for_zero_rhs(unit_square_mesh):
    mesh = refine(unit_square_mesh, np.arange(unit_square_mesh.num_edges))
    k = assemble_stiffness(mesh)

    def precond(r):
        raise AssertionError("no iteration expected")

    x0 = np.arange(mesh.num_nodes, dtype=float)
    x, steps = cg_solve(k, np.zeros(mesh.num_nodes), x0, precond)
    assert steps == 0
    assert np.array_equal(x, np.zeros(mesh.num_nodes))


def test_cg_solve_rejects_a_finite_rhs_whose_norm_overflows(
        unit_square_mesh):
    # the tolerance would be inf, and x0 would come back after 0 steps
    mesh = refine(unit_square_mesh, np.arange(unit_square_mesh.num_edges))
    k = assemble_stiffness(mesh)
    rhs = np.full(mesh.num_nodes, 1e155)

    def precond(r):
        raise AssertionError("no iteration expected")

    with pytest.raises(ValueError, match="norm is not finite"):
        cg_solve(k, rhs, np.zeros(mesh.num_nodes), precond)


def test_cg_solve_raises_when_it_does_not_converge():
    # a non-symmetric preconditioner keeps CG from converging
    p = example1()
    mesh = build_initial_mesh(p.domain)
    for _ in range(3):
        mesh = refine(mesh, np.arange(mesh.num_edges))
    idx = np.setdiff1d(np.arange(mesh.num_nodes), mesh.boundary_node_ids())
    k = assemble_stiffness(mesh)[idx][:, idx]
    rhs = assemble_load(mesh, p.f)[idx]
    with pytest.raises(RuntimeError,
                       match=r"CG failed to converge \(info=10000\)"):
        cg_solve(k, rhs, np.zeros(len(idx)), lambda r: np.roll(r, 1))
