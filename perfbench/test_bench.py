"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import sys
import types

import pytest

import obstacle_afem as oa
import spans
import workloads


@pytest.fixture(scope="module")
def golden():
    return workloads.load_golden()


def test_every_workload_has_golden_values(golden):
    for name in workloads.WORKLOADS:
        assert set(workloads.RTOL) <= set(golden[name])
        assert golden[name]["fingerprint"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_golden_check_accepts_the_golden_values(golden, name):
    values = {key: golden[name][key] for key in workloads.RTOL}
    assert workloads.compare_golden(values, golden[name]) == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("key", sorted(workloads.RTOL))
def test_golden_check_rejects_perturbation_beyond_tolerance(golden, name,
                                                            key):
    values = {k: golden[name][k] for k in workloads.RTOL}
    rtol = workloads.RTOL[key]
    values[key] = golden[name][key] * (1 + 0.1 * rtol)
    assert workloads.compare_golden(values, golden[name]) == []
    values[key] = golden[name][key] * (1 + 10 * rtol)
    failures = workloads.compare_golden(values, golden[name])
    assert len(failures) == 1 and failures[0].startswith(key + "=")


def test_golden_check_rejects_nan(golden):
    values = {k: golden["e1-adaptive"][k] for k in workloads.RTOL}
    values["J"] = float("nan")
    assert workloads.compare_golden(values, golden["e1-adaptive"])


def _small_run():
    problem = oa.example1()
    return problem, oa.adapt.run_adaptive(problem, 0.5, max_elements=300)


def test_check_rejects_perturbed_final_energy(golden):
    problem, result = _small_run()
    last = result.records[-1]
    entry = {"J": last.energy, "rho": last.rho, "eps": last.eps,
             "fingerprint": "-"}
    failures, observed = workloads.check(oa, "small", problem, result, None,
                                         {"small": entry})
    assert failures == []
    assert observed["kkt"] <= workloads.KKT_TOL
    last.energy *= 1 + 1e-6
    failures, _ = workloads.check(oa, "small", problem, result, None,
                                  {"small": entry})
    assert any(f.startswith("J=") for f in failures)
    assert any("rebuilt system" in f for f in failures)


def test_fingerprint_follows_the_trajectory():
    _, result = _small_run()
    marked = [5] * (len(result.records) - 1)
    base = workloads.fingerprint(result, marked)
    assert base == workloads.fingerprint(result, list(marked))
    assert base != workloads.fingerprint(result, marked[:-1] + [6])
    result.records[-1].pdas_iters += 1
    assert base != workloads.fingerprint(result, marked)


def test_tracer_reports_missing_targets_as_absent(monkeypatch):
    fake = types.ModuleType("obstacle_afem.vi")
    monkeypatch.setitem(sys.modules, "obstacle_afem.vi", fake)
    tracer = spans.Tracer()
    tracer.wrap("obstacle_afem.vi", "cg_solve", "fem.cg")
    tracer.wrap("no_such_package.module", "f", "x.f")
    assert tracer.absent == ["obstacle_afem.vi.cg_solve",
                             "no_such_package.module.f"]
    assert spans.layer_metrics(tracer.spans)["fem.cg_calls"] == 0


def test_traced_run_splits_by_level_and_restores():
    originals = {(m, a): getattr(__import__(m, fromlist=[a]), a)
                 for m, a, _ in spans.TARGETS}
    tracer = spans.Tracer().install()
    try:
        _, result = _small_run()
    finally:
        tracer.restore()
    for (m, a), fn in originals.items():
        assert getattr(__import__(m, fromlist=[a]), a) is fn
    assert tracer.absent == []

    layers = spans.layer_metrics(tracer.spans)
    assert layers["adapt.levels"] == len(result.records)
    assert layers["vi.pdas_iters"] == sum(r.pdas_iters
                                          for r in result.records)
    assert layers["mesh.refine_self_s"] <= layers["mesh.refine_s"]
    assert layers["estimator.self_s"] <= layers["estimator.assemble_s"]

    rows = spans.phase_rows(tracer.spans)
    assert [r["level"] for r in rows] == list(range(len(result.records)))
    assert [r["N"] for r in rows] == [r.n_elements for r in result.records]
    loop = next(s for s in tracer.spans if s.name == "adapt.run_adaptive")
    wall_ms = sum(r["level_ms"] for r in rows)
    assert wall_ms == pytest.approx(loop.duration * 1e3, rel=1e-9)
    assert all(r["other"] >= -1e-6 for r in rows)
    assert spans.top_level_seconds(tracer.spans) <= loop.duration


def test_self_times_subtract_direct_children():
    a = spans.Span("a", -1, 0)
    b = spans.Span("b", 0, 0)
    c = spans.Span("c", 1, 0)
    a.start, a.end = 0.0, 10.0
    b.start, b.end = 1.0, 5.0
    c.start, c.end = 2.0, 3.0
    assert spans.self_times([a, b, c]) == [6.0, 3.0, 1.0]


def test_reported_metrics_match_benchmark_json():
    import json
    from pathlib import Path

    import run

    spec = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json")
        .read_text())
    assert [w["name"] for w in spec["workloads"]] \
        == list(workloads.WORKLOADS)
    observed = {"J": 1.0, "rho": 1.0, "eps": 1.0, "kkt": 0.0}
    sample = {"run_s": 1.0, "peak_rss_mb": 1.0, "observed": observed,
              "top_level_s": 0.9, "n_spans": 1, "absent": [],
              "phase_rows": [],
              "layers": spans.layer_metrics([])}
    e2e = run.end_to_end([0.5], [sample])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == {k: unit for k, (_, unit, _) in e2e.items()}
    layers = run.per_layer([sample], [sample])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == {k: unit for k, (_, unit, _) in layers.items()}
