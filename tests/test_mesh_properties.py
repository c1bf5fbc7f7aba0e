"""Property tests of the coarse meshes and newest vertex bisection.

Hypothesis draws square and rectangle bounds, L-shape widths and short
sequences of random mark sets; every refined mesh must keep the area,
put a node at the midpoint of each marked edge, give each triangle one
to four sons and keep its boundary edges on the domain's polygon.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from obstacle_afem import LShape, Square, build_initial_mesh, refine
from obstacle_afem.mesh import boundary_polygon

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
    lengths = mesh.edge_lengths[mesh.tri2edge]
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
        sons = np.bincount(fine.parent_triangles,
                           minlength=coarse.num_triangles)
        assert sons.min() >= 1 and sons.max() <= 4
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
        length = fine.edge_lengths[fine.is_boundary_edge].sum()
        assert np.isclose(length, np.hypot(*side.T).sum(), rtol=1e-12)
