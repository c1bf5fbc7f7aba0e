import importlib.util
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

import obstacle_afem
from obstacle_afem import adapt, problems
from obstacle_afem import (ProblemSpec, Square, dorfler_mark,
                           example1, example2, reference_energy, run_adaptive,
                           run_uniform)
from tests.conftest import brute_force_min_cardinality, recording
from tests.edge_oracles import exact_trace

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" \
    / "workloads.py"


def zero_problem():
    z = lambda x, y: np.zeros_like(np.asarray(x, dtype=float))
    return ProblemSpec(name="zero", domain=Square(0, 0, 1, 1), g=z, f=z)


def achieved_fraction(contrib, marked):
    contrib = np.asarray(contrib, dtype=float)
    return contrib[marked].sum() / contrib.sum()


def test_dorfler_small_fraction_marks_single_largest():
    contrib = [4.0, 3.0, 2.0, 1.0]
    marked = dorfler_mark(contrib, 0.4)
    assert list(marked) == [0]
    assert achieved_fraction(contrib, marked) >= 0.4


def test_dorfler_large_fraction_marks_three():
    contrib = [4.0, 3.0, 2.0, 1.0]
    marked = dorfler_mark(contrib, 0.8)
    assert list(marked) == [0, 1, 2]
    assert np.isclose(achieved_fraction(contrib, marked), 0.9)


def test_dorfler_tie_breaks_by_edge_id():
    marked = dorfler_mark([2.0, 2.0, 1.0], 0.4)
    assert list(marked) == [0]


def test_dorfler_returns_sorted_edge_id_array():
    marked = dorfler_mark([1.0, 3.0, 0.5, 2.0], 0.7)
    assert isinstance(marked, np.ndarray)
    assert marked.dtype.kind == "i"
    assert marked.tolist() == [1, 3]


def test_dorfler_validates_inputs():
    with pytest.raises(ValueError):
        dorfler_mark([1.0], 1.5)
    with pytest.raises(ValueError):
        dorfler_mark([0.0, 0.0], 0.5)


@pytest.mark.parametrize("contrib", [[1.0, np.nan, 0.0, 0.0, 0.0],
                                     [np.inf, 1.0, 0.0, 0.0, 0.0],
                                     [1.0, 2.0, -np.inf, 0.0, 0.0]])
def test_dorfler_rejects_non_finite_contributions(contrib):
    with pytest.raises(ValueError, match="contributions are not finite"):
        dorfler_mark(contrib, 0.5)


def test_dorfler_minimality_matches_brute_force():
    rng = np.random.default_rng(123)
    for _ in range(50):
        n = int(rng.integers(1, 13))
        contrib = rng.uniform(0.0, 1.0, n) ** 2
        theta = float(rng.uniform(0.05, 0.95))
        marked = dorfler_mark(contrib, theta)
        assert contrib[marked].sum() >= theta * contrib.sum() * (1 - 1e-9)
        assert len(marked) == brute_force_min_cardinality(contrib, theta)


def test_adaptive_run_invariants():
    records = run_adaptive(example1(), 0.6, max_elements=1500).records
    n = [r.n_elements for r in records]
    assert n == sorted(n) and len(set(n)) == len(n)
    assert n[-1] >= 1500
    assert all(r.rho > 0 for r in records)
    assert all(r.eps is not None and r.eps >= 0 for r in records)
    assert records[-1].eps < records[0].eps
    assert all(r.pdas_iters <= 100 for r in records)


def test_wall_ms_covers_marking_and_refinement(monkeypatch):
    refine = adapt.refine

    def slow_refine(mesh, marked):
        time.sleep(0.05)
        return refine(mesh, marked)

    monkeypatch.setattr(adapt, "refine", slow_refine)
    records = run_adaptive(example1(), 0.6, max_elements=100).records
    assert len(records) > 1
    # the final level stops before marking, so it has no refine to time
    assert all(r.wall_ms >= 50.0 for r in records[:-1])


def test_estimator_runs_without_the_previous_mesh_or_the_stiffness(
        monkeypatch):
    assemble_stiffness = adapt.assemble_stiffness
    assemble_indicators = adapt.assemble_indicators
    meshes, matrices, alive = [], [], []

    def weak_stiffness(mesh):
        k = assemble_stiffness(mesh)
        matrices.append(weakref.ref(k))
        return k

    def weak_indicators(mesh, *args):
        # every earlier mesh and this level's stiffness must be freed
        alive.append([r() is not None for r in meshes + matrices[-1:]])
        meshes.append(weakref.ref(mesh))
        return assemble_indicators(mesh, *args)

    monkeypatch.setattr(adapt, "assemble_stiffness", weak_stiffness)
    monkeypatch.setattr(adapt, "assemble_indicators", weak_indicators)
    run_adaptive(example1(), 0.5, max_elements=3000)
    assert len(alive) > 2
    assert not any(any(level) for level in alive)


def test_load_is_assembled_with_no_stiffness_alive(monkeypatch):
    assemble_stiffness = adapt.assemble_stiffness
    assemble_load = adapt.assemble_load
    matrices, loads = [], []

    def weak_stiffness(mesh):
        k = assemble_stiffness(mesh)
        matrices.append(weakref.ref(k))
        return k

    def checked_load(mesh, f):
        loads.append(mesh.level)
        assert all(r() is None for r in matrices)
        return assemble_load(mesh, f)

    for module in (adapt, problems):
        monkeypatch.setattr(module, "assemble_stiffness", weak_stiffness)
        monkeypatch.setattr(module, "assemble_load", checked_load)
    assert len(run_adaptive(example1(), 0.5, max_elements=1000).records) > 2
    reference_energy(example2(), n_target=2000)
    assert len(loads) == len(matrices) and loads.count(0) == 2


def test_estimator_decays_for_all_thetas():
    for theta in (0.4, 0.6, 0.8):
        records = run_adaptive(example1(), theta, max_elements=4000).records
        assert records[-1].rho < 0.1 * records[0].rho


def test_uniform_element_counts_quadruple():
    records = run_uniform(example1(), max_elements=100).records
    assert [r.n_elements for r in records] == [2, 8, 32, 128]


def test_theta_near_one_matches_uniform(zero_trace):
    # a non-constant load keeps every edge contribution strictly positive,
    # so marking with theta ~ 1 selects every edge, like the uniform loop
    prob = ProblemSpec(name="tilt", domain=Square(0, 0, 1, 1),
                       g=zero_trace,
                       f=lambda x, y: x + 2.0 * y + 1.0)
    ada = run_adaptive(prob, 1.0 - 1e-12, max_elements=100).records
    uni = run_uniform(prob, max_elements=100).records
    assert [r.n_elements for r in ada] == [r.n_elements for r in uni]
    assert np.allclose([r.rho for r in ada], [r.rho for r in uni])


def test_zero_data_terminates_at_level_zero():
    records = run_adaptive(zero_problem(), 0.5).records
    assert len(records) == 1
    assert records[0].rho == 0.0


def test_energy_monotone_under_uniform_refinement_with_affine_data():
    # affine g is reproduced exactly on every mesh, so the admissible sets
    # are nested and the minimal energy cannot increase
    prob = ProblemSpec(
        name="affine", domain=Square(0, 0, 1, 1),
        g=lambda x, y: x + y,
        f=lambda x, y: np.full_like(x, -3.0))
    with exact_trace(lambda x, y: (np.ones_like(x), np.ones_like(x))):
        records = run_uniform(prob, max_elements=600).records
    energies = [r.energy for r in records]
    assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))


def test_estimator_reduction_along_adaptive_run():
    theta = 0.6
    records = run_adaptive(example1(), theta, max_elements=4000).records
    # contraction-type estimate with 10% slack and a generous constant
    c_hat = 10.0
    for prev, cur in zip(records, records[1:]):
        bound = ((1.0 - theta / 4.0) + 0.1) * prev.rho ** 2 \
            + c_hat * cur.du_norm ** 2
        assert cur.rho ** 2 <= bound


def test_max_level_is_the_last_level_computed():
    # levels count from 0: max_level=2 computes three levels
    result = run_adaptive(example1(), 0.5, max_level=2)
    assert [r.level for r in result.records] == [0, 1, 2]
    assert len(run_uniform(example1(), max_level=0).records) == 1


@pytest.mark.parametrize("name", ["e2-adaptive", "e1-adaptive"])
def test_adaptive_workloads_keep_the_benchmark_trajectories(name):
    # the benchmark's own workload call, fingerprint rule and golden
    # value: per level N, pdas_iters and the number of marked edges
    spec = importlib.util.spec_from_file_location("workloads",
                                                  WORKLOADS_PATH)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    factory, run = workloads.WORKLOADS[name]
    with recording(adapt, "refine") as calls:
        result, _ = run(obstacle_afem, getattr(problems, factory)())
    marked = [len(args[1]) for args, _ in calls]
    golden = workloads.load_golden()[name]
    assert len(result.records) == golden["levels"]
    assert workloads.fingerprint(result, marked) == golden["fingerprint"]
