import csv
import json

import numpy as np
import pytest

from obstacle_afem.cli import RunConfig, fit_rates, main, run


def test_fit_rates_exact_half_slope():
    n = np.array([100, 200, 400, 800, 1600], dtype=float)
    rows = [type("R", (), {"n_elements": ni, "rho": ni ** -0.5})()
            for ni in n]
    fit = fit_rates(rows, "rho")
    assert abs(fit.slope + 0.5) < 1e-12
    assert fit.n_points == 5


def test_fit_rates_noisy_three_quarters_slope():
    rng = np.random.default_rng(1)
    n = np.geomspace(100, 100000, 12)
    rows = [type("R", (), {"n_elements": ni,
                           "rho": 3.0 * ni ** -0.75
                           * (1 + 0.01 * rng.normal())})()
            for ni in n]
    fit = fit_rates(rows, "rho")
    assert abs(fit.slope + 0.75) < 0.02


def test_fit_rates_constant_gives_zero_slope():
    rows = [type("R", (), {"n_elements": ni, "rho": 2.0})()
            for ni in [10, 20, 40, 80]]
    assert abs(fit_rates(rows, "rho").slope) < 1e-12


def test_fit_rates_requires_four_points():
    rows = [type("R", (), {"n_elements": ni, "rho": 1.0})()
            for ni in [10, 20, 40]]
    with pytest.raises(ValueError):
        fit_rates(rows, "rho")


def test_run_writes_csv_with_eps_column(tmp_path):
    out = tmp_path / "run.csv"
    config = RunConfig(problem="example1", mode="adaptive", theta=0.6,
                       max_elements=200, out=str(out))
    records = run(config)
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(records)
    assert list(rows[0]) == ["level", "N", "rho", "rho_tilde", "apx", "J",
                             "eps", "pdas_iters", "wall_ms"]
    for row in rows:
        for key in ("rho", "rho_tilde", "apx", "J", "eps", "wall_ms"):
            assert np.isfinite(float(row[key]))


def test_run_without_reference_omits_eps_column(tmp_path):
    out = tmp_path / "run2.csv"
    config = RunConfig(problem="example2", mode="adaptive", theta=0.6,
                       max_elements=100, out=str(out))
    run(config)
    header = out.read_text().splitlines()[0].split(",")
    assert "eps" not in header


def test_run_deterministic_csv(tmp_path):
    texts = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        run(RunConfig(problem="example1", theta=0.5, max_elements=300,
                      out=str(out)))
        # everything except the wall-clock column must be reproducible
        lines = [line.rsplit(",", 1)[0]
                 for line in out.read_text().splitlines()]
        texts.append(lines)
    assert texts[0] == texts[1]


def test_cli_run_and_fit_roundtrip(tmp_path, capsys):
    out = tmp_path / "e1.csv"
    code = main(["run", "--problem", "example1", "--theta", "0.8",
                 "--max-elements", "4000", "--out", str(out)])
    assert code == 0
    rows = list(csv.DictReader(open(out)))
    assert 4000 <= int(rows[-1]["N"]) <= 16000
    code = main(["fit-rates", str(out), "--quantity", "sqrt_eps",
                 "--window", "5"])
    assert code == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    slope = float(line.split()[0].split("=")[1])
    assert -0.8 < slope < -0.3


def test_cli_uniform_quadruples(tmp_path):
    out = tmp_path / "u.csv"
    assert main(["run", "--problem", "example1", "--mode", "uniform",
                 "--max-elements", "600", "--out", str(out)]) == 0
    ns = [int(r["N"]) for r in csv.DictReader(open(out))]
    assert ns == [2, 8, 32, 128, 512, 2048]


def test_cli_usage_errors_exit_one(capsys):
    assert main(["run", "--theta", "1.5"]) == 1
    assert main(["run", "--problem", "nonsense"]) == 1
    assert main(["run", "--mode", "sideways"]) == 1
    capsys.readouterr()


def test_cli_numerical_failure_exit_two(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["run", "--problem", f"custom:{missing}"]) == 2
    assert main(["fit-rates", str(tmp_path / "nope.csv")]) == 2
    capsys.readouterr()


def test_cli_config_file_merges_with_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "cfg_run.csv"
    cfg.write_text(json.dumps({"problem": "example1", "theta": 0.4,
                               "max-elements": 150, "out": str(out)}))
    assert main(["run", "--config", str(cfg), "--theta", "0.7"]) == 0
    rows = list(csv.DictReader(open(out)))
    assert int(rows[-1]["N"]) >= 150
    # the command-line theta overrides the config file: a rerun with the
    # config value produces a different level sequence
    out2 = tmp_path / "cfg_run2.csv"
    run(RunConfig(problem="example1", theta=0.7, max_elements=150,
                  out=str(out2)))
    assert out.read_text().splitlines()[-1].split(",")[1] \
        == out2.read_text().splitlines()[-1].split(",")[1]


def test_cli_rejects_unknown_config_key(tmp_path, capsys):
    for key in ("bogus", "seed"):
        cfg = tmp_path / f"{key}.json"
        cfg.write_text(json.dumps({"problem": "example1", key: 1}))
        assert main(["run", "--config", str(cfg)]) == 1
        assert repr(key) in capsys.readouterr().err
    assert main(["run", "--seed", "1"]) == 1
    capsys.readouterr()


def test_cli_dump_flags(tmp_path):
    mesh_path = tmp_path / "mesh.txt"
    ind_path = tmp_path / "ind.csv"
    assert main(["run", "--problem", "example1", "--max-elements", "100",
                 "--dump-mesh", str(mesh_path),
                 "--dump-indicators", str(ind_path)]) == 0
    assert mesh_path.read_text().startswith("nodes ")
    assert ind_path.read_text().startswith("edge_id,kind,")
