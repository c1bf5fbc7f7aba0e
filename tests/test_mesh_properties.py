"""Property tests of the coarse meshes and newest vertex bisection.

Hypothesis draws square and rectangle bounds, L-shape widths and short
sequences of random mark sets; every refined mesh must keep the area,
put a node at the midpoint of each marked edge, give each triangle one
to four sons and keep its boundary edges on the domain's polygon.  The
bisection history it carries must give the same prolongations as the
level-by-level ``prolong``, and each V-cycle set-up's prolongation,
built for its rows before the products, the same arrays as the whole
one sliced after and as the whole first generation sliced before.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from obstacle_afem import (LShape, Square, build_initial_mesh, example1,
                           example2, prolong, refine, run_adaptive)
from obstacle_afem.vi import truncated_prolongation
from tests.mesh_oracles import (boundary_polygon, edge_lengths,
                                father_triangles, level_prolongations,
                                sliced_truncated_prolongation)

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None,
                             database=None, max_examples=60)

coords = st.floats(-10.0, 10.0, allow_nan=False)
sizes = st.floats(0.01, 10.0, allow_nan=False)
squares = st.builds(lambda x, y, w, h: Square(x, y, x + w, y + h),
                    coords, coords, sizes, sizes)
lshapes = st.builds(LShape, sizes)
domains = st.one_of(squares, lshapes)


def domain_area(domain):
    if isinstance(domain, Square):
        return (domain.xmax - domain.xmin) * (domain.ymax - domain.ymin)
    return 3.0 * domain.half_width ** 2


def refine_randomly(data, mesh, steps):
    """Yield (coarse, marked, fine) for ``steps`` random refinements."""
    for _ in range(steps):
        marked = data.draw(st.lists(st.integers(0, mesh.num_edges - 1),
                                    min_size=1, max_size=8))
        fine = refine(mesh, marked)
        yield mesh, np.asarray(marked), fine
        mesh = fine


@PROPERTY_SETTINGS
@given(domains)
def test_coarse_reference_edge_is_longest_edge(domain):
    mesh = build_initial_mesh(domain)
    lengths = edge_lengths(mesh)[mesh.tri2edge]
    ref = lengths[np.arange(mesh.num_triangles), mesh.ref_edge]
    assert np.array_equal(ref, lengths.max(axis=1))


@PROPERTY_SETTINGS
@given(domains, st.data())
def test_refinement_keeps_area_and_bisects_marked_edges(domain, data):
    mesh = build_initial_mesh(domain)
    area = domain_area(domain)
    assert np.isclose(mesh.areas.sum(), area, rtol=1e-12)
    for coarse, marked, fine in refine_randomly(data, mesh, steps=4):
        assert np.isclose(fine.areas.sum(), area, rtol=1e-12)
        nodes = set(map(tuple, fine.nodes))
        ends = coarse.nodes[coarse.edges[marked]]
        mids = 0.5 * (ends[:, 0] + ends[:, 1])
        assert all(tuple(p) in nodes for p in mids)


@PROPERTY_SETTINGS
@given(domains, st.data())
def test_each_parent_has_one_to_four_sons(domain, data):
    mesh = build_initial_mesh(domain)
    for coarse, marked, fine in refine_randomly(data, mesh, steps=4):
        fathers = father_triangles(coarse, fine)
        sons = np.bincount(fathers, minlength=coarse.num_triangles)
        assert sons.min() >= 1 and sons.max() <= 4
        assert np.allclose(np.bincount(fathers, weights=fine.areas),
                           coarse.areas, rtol=1e-12, atol=0.0)
        touched = np.isin(coarse.tri2edge, marked).any(axis=1)
        assert (sons[touched] >= 2).all()


@PROPERTY_SETTINGS
@given(domains, st.data())
def test_boundary_edges_lie_on_the_boundary_polygon(domain, data):
    poly = boundary_polygon(domain)
    a, b = poly, np.roll(poly, -1, axis=0)
    side = b - a
    scale = np.abs(poly).max() + np.abs(side).max()
    mesh = build_initial_mesh(domain)
    for _, _, fine in refine_randomly(data, mesh, steps=3):
        ends = fine.nodes[fine.edges[fine.is_boundary_edge]]
        # (edge, endpoint, side): distance of the endpoint from the
        # side's line and its position along the side
        rel = ends[:, :, None, :] - a
        cross = side[:, 0] * rel[..., 1] - side[:, 1] * rel[..., 0]
        along = np.einsum("sd,epsd->eps", side, rel) / (side ** 2).sum(1)
        on_side = ((np.abs(cross) <= 1e-12 * scale ** 2)
                   & (along >= -1e-12) & (along <= 1 + 1e-12))
        assert on_side.all(axis=1).any(axis=1).all()
        length = edge_lengths(fine)[fine.is_boundary_edge].sum()
        assert np.isclose(length, np.hypot(*side.T).sum(), rtol=1e-12)


@PROPERTY_SETTINGS
@given(domains, st.data())
def test_history_prolongations_chain_level_by_level_prolong(domain, data):
    meshes = [build_initial_mesh(domain)]
    steps = data.draw(st.integers(1, 6))
    meshes += [fine for _, _, fine in refine_randomly(data, meshes[0], steps)]
    counts = [m.num_nodes for m in meshes]
    assert list(meshes[-1].level_nodes) == counts
    rng = np.random.default_rng(len(counts))
    fine = len(counts) - 1
    for p in level_prolongations(meshes[-1]):
        assert p.shape[0] == counts[fine]
        coarse = counts.index(p.shape[1])
        # the finest earlier level with at most half the nodes, else 0
        assert coarse == max([0] + [level for level in range(fine)
                                    if 2 * counts[level] <= counts[fine]])
        v = rng.normal(size=counts[coarse])
        chained = v
        for level in range(coarse, fine):
            chained = prolong(chained, meshes[level + 1])
        assert np.allclose(p @ v, chained, rtol=0.0, atol=1e-12)
        fine = coarse
    assert fine == 0


def assert_set_ups_slice_the_whole_prolongations(mesh, masks):
    """At every kept level, on each node mask that ``masks(n)`` gives
    over its n nodes: the set-up's truncated prolongation has the
    arrays, dtypes and next kept level of the oracle's whole
    prolongation sliced after the products, and of the products of the
    whole first generation's rows."""
    counts = list(mesh.level_nodes)
    level = mesh.level
    for whole in level_prolongations(mesh):
        kept = counts.index(whole.shape[1])
        for mask in masks(counts[level]):
            idx = np.flatnonzero(mask)
            p, got = truncated_prolongation(mesh, level, idx)
            sliced, sliced_kept = sliced_truncated_prolongation(mesh, level,
                                                                idx)
            assert got == kept == sliced_kept
            for want in (whole[idx], sliced):
                assert p.shape == want.shape
                for a, b in ((p.indptr, want.indptr),
                             (p.indices, want.indices),
                             (p.data.view(np.uint64),
                              want.data.view(np.uint64))):
                    assert a.dtype == b.dtype and np.array_equal(a, b)
        level = kept
    assert level == 0


@PROPERTY_SETTINGS
@given(domains, st.data())
def test_set_up_prolongations_slice_rows_before_the_products(domain, data):
    # drawn uniform steps, then random marks that leave several
    # generations between kept levels; drawn masks, all rows and one row
    mesh = build_initial_mesh(domain)
    for _ in range(data.draw(st.integers(0, 3))):
        mesh = refine(mesh, np.arange(mesh.num_edges))
    steps = data.draw(st.integers(1, 6))
    mesh = [fine for *_, fine in refine_randomly(data, mesh, steps)][-1]

    def masks(n):
        one = np.zeros(n, bool)
        one[data.draw(st.integers(0, n - 1))] = True
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        share = data.draw(st.floats(0.0, 1.0))
        return [np.ones(n, bool), one,
                np.random.default_rng(seed).random(n) < share]

    assert_set_ups_slice_the_whole_prolongations(mesh, masks)


def test_set_up_prolongations_slice_rows_on_uniform_and_adaptive_meshes():
    rng = np.random.default_rng(36)

    def masks(n):
        one = np.zeros(n, bool)
        one[rng.integers(n)] = True
        return [np.ones(n, bool), one, rng.random(n) < 0.3,
                rng.random(n) < 0.9]

    # most kept levels of the adaptive meshes merge two generations
    meshes = [run_adaptive(problem, 0.5, max_elements=2000).mesh
              for problem in (example1(), example2())]
    assert all(len(level_prolongations(m)) < m.level for m in meshes)
    for domain in (Square(), LShape()):
        mesh = build_initial_mesh(domain)
        for _ in range(5):
            mesh = refine(mesh, np.arange(mesh.num_edges))
        meshes.append(mesh)
    for mesh in meshes:
        assert mesh.level >= 5
        assert_set_ups_slice_the_whole_prolongations(mesh, masks)
