import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from obstacle_afem.cli import RunConfig, fit_rates, main, run


def test_fit_rates_exact_half_slope():
    n = np.array([100, 200, 400, 800, 1600], dtype=float)
    fit = fit_rates(n, n ** -0.5)
    assert abs(fit.slope + 0.5) < 1e-12
    assert fit.n_points == 5


def test_fit_rates_noisy_three_quarters_slope():
    rng = np.random.default_rng(1)
    n = np.geomspace(100, 100000, 12)
    rho = [3.0 * ni ** -0.75 * (1 + 0.01 * rng.normal()) for ni in n]
    fit = fit_rates(n, rho)
    assert abs(fit.slope + 0.75) < 0.02


def test_fit_rates_constant_gives_zero_slope():
    assert abs(fit_rates([10, 20, 40, 80], [2.0] * 4).slope) < 1e-12


def test_fit_rates_skips_zero_n_and_infinite_points():
    # q = N^(-1/2) on four points, then one N = 0 and one q = inf point
    n = [10.0, 40.0, 640.0, 2560.0, 0.0, 160.0]
    q = [x ** -0.5 for x in n[:4]] + [1.0, np.inf]
    fit = fit_rates(n, q)
    assert abs(fit.slope + 0.5) < 1e-12
    assert fit.n_points == 4


def test_fit_rates_requires_four_points():
    with pytest.raises(ValueError):
        fit_rates([10, 20, 40], [1.0] * 3)


def test_run_writes_csv_with_eps_column(tmp_path):
    out = tmp_path / "run.csv"
    config = RunConfig(problem="example1", mode="adaptive", theta=0.6,
                       max_elements=200, out=str(out))
    records = run(config)
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(records)
    assert list(rows[0]) == ["level", "N", "rho", "rho_tilde", "apx", "J",
                             "eps", "pdas_iters", "wall_ms", "cg_iters"]
    for row, record in zip(rows, records):
        for key in ("rho", "rho_tilde", "apx", "J", "eps", "wall_ms"):
            assert np.isfinite(float(row[key]))
        assert int(row["cg_iters"]) == record.cg_iters
    assert records[-1].cg_iters > 0


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
        with open(out, newline="") as fh:
            texts.append([{k: v for k, v in row.items() if k != "wall_ms"}
                          for row in csv.DictReader(fh)])
    assert texts[0] == texts[1]


def cli_env(**extra):
    """Environment for a CLI subprocess that imports this ``src/``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_cli_runs_are_deterministic(tmp_path):
    # two CLI processes (different hash seeds) must write the same CSV
    # apart from the wall-clock column
    tables = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"run{hash_seed}.csv"
        env = cli_env(PYTHONHASHSEED=hash_seed)
        subprocess.run([sys.executable, "-m", "obstacle_afem.cli", "run",
                        "--problem", "example1", "--max-elements", "2000",
                        "--out", str(out)], env=env, check=True,
                       capture_output=True)
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        tables.append([{k: v for k, v in row.items() if k != "wall_ms"}
                       for row in rows])
    assert int(tables[0][-1]["N"]) >= 2000
    assert tables[0] == tables[1]


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
    assert line.endswith("points=5")
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


@pytest.mark.parametrize("value,code,message", [
    ("-5", 1, "--reference-elements must be at least 1, not -5"),
    ("0", 1, "--reference-elements must be at least 1, not 0"),
    ("5", 2, "below the 6-element coarse mesh"),
])
def test_cli_reference_elements_out_of_range(capsys, value, code, message):
    assert main(["run", "--problem", "example2", "--reference-elements",
                 value, "--max-elements", "10"]) == code
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [
    ("max_level", -1), ("max_elements", 0), ("max_elements", -7),
])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_cli_run_bounds_out_of_range(tmp_path, capsys, key, value, source):
    flag = "--" + key.replace("_", "-")
    args = [flag, str(value)]
    if source == "config":
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: value}))
        args = ["--config", str(path)]
    assert main(["run", "--problem", "example1", *args]) == 1
    assert f"{flag} must be at least" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--out", "--dump-mesh",
                                  "--dump-indicators"])
def test_cli_missing_output_directory_exit_one(tmp_path, capsys,
                                               monkeypatch, flag):
    # the path is checked before any level is solved
    import obstacle_afem.adapt as adapt

    def solve_obstacle(*args, **kwargs):
        raise AssertionError("a level was solved")

    monkeypatch.setattr(adapt, "solve_obstacle", solve_obstacle)
    path = tmp_path / "missing" / "x.out"
    assert main(["run", "--problem", "example1", flag, str(path)]) == 1
    assert repr(str(path)) in capsys.readouterr().err
    assert not path.parent.exists()
    # an existing directory is no file path either
    assert main(["run", "--problem", "example1", flag, str(tmp_path)]) == 1
    assert f"{str(tmp_path)!r} is a directory" in capsys.readouterr().err


@pytest.mark.parametrize("args,message", [
    (["--window", "0"], "--window must be at least 1, not 0"),
    (["--window", "-3"], "--window must be at least 1, not -3"),
    (["--quantity", "foo"], "--quantity 'foo' is not a column"),
], ids=["window-zero", "window-negative", "quantity"])
def test_cli_fit_rates_bad_input_exit_one(tmp_path, capsys, args, message):
    path = tmp_path / "rates.csv"  # 13 levels, rho = N^(-1/2)
    path.write_text("level,N,rho\n" + "".join(
        f"{k},{2 * 4 ** k},{(2 * 4 ** k) ** -0.5!r}\n" for k in range(13)))
    assert main(["fit-rates", str(path), *args]) == 1
    assert message in capsys.readouterr().err


def test_cli_fit_rates_csv_without_n_column_exit_one(tmp_path, capsys):
    path = tmp_path / "rates.csv"
    path.write_text("level,rho\n" + "".join(
        f"{k},{4.0 ** -k!r}\n" for k in range(6)))
    assert main(["fit-rates", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"{path} has no N column" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("column,cell", [
    ("N", ""), ("N", "abc"), ("rho", "abc"),
], ids=["empty-N", "text-N", "text-rho"])
def test_cli_fit_rates_non_numeric_cell_exit_one(tmp_path, capsys, column,
                                                 cell):
    path = tmp_path / "rates.csv"
    rows = [{"level": k, "N": 2 * 4 ** k, "rho": (2 * 4 ** k) ** -0.5}
            for k in range(6)]
    rows[3][column] = cell
    path.write_text("level,N,rho\n" + "".join(
        f"{r['level']},{r['N']},{r['rho']}\n" for r in rows))
    assert main(["fit-rates", str(path)]) == 1
    err = capsys.readouterr().err
    assert str(path) in err and repr(cell) in err
    assert "Traceback" not in err


def test_cli_numerical_failure_exit_two(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["run", "--problem", f"custom:{missing}"]) == 2
    assert main(["fit-rates", str(tmp_path / "nope.csv")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("key,expr,message", [
    ("g", "sqrt(x - 0.5)", "Dirichlet data g is not finite"),
    ("f", "log(x - 0.5)", "load f is not finite"),
])
def test_cli_non_finite_data_exit_two(tmp_path, capsys, key, expr,
                                      message):
    cfg = {"domain": {"type": "square"}, "f": "1 + 0*x", "g": "0*x"}
    cfg[key] = expr
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", "--problem", f"custom:{path}"]) == 2
    assert message in capsys.readouterr().err
    assert not [w for w in caught if w.category is RuntimeWarning]


def test_cli_custom_config_missing_key_exit_one(tmp_path, capsys):
    path = tmp_path / "nog.json"
    path.write_text(json.dumps({"domain": {"type": "square"},
                                "f": "1 + 0*x"}))
    assert main(["run", "--problem", f"custom:{path}"]) == 1
    err = capsys.readouterr().err
    assert "'g'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag,text,message", [
    ("--problem",
     json.dumps({"domain": {"type": "pentagon"}, "f": "0*x", "g": "0*x"}),
     "unknown domain type 'pentagon'"),
    ("--problem",
     json.dumps({"domain": {"type": "square"}, "f": "0*x", "g": "x +"}),
     "invalid syntax"),
    ("--problem", json.dumps({"domain": {"type": "square"}, "f": "0*x",
                              "g": "().__class__.__base__.__subclasses__()"}),
     "is not allowed"),
    ("--problem", '{"domain": ', "Expecting value"),
    ("--config", '{"theta": ', "Expecting value"),
    ("--problem", json.dumps({"domain": {"type": "square", "xmin": 1,
                                         "xmax": 0}, "f": "0*x", "g": "0*x"}),
     "degenerate square domain"),
    ("--problem", json.dumps({"domain": {"type": "lshape", "half_width": -1},
                              "f": "0*x", "g": "0*x"}),
     "degenerate L-shape domain"),
], ids=["domain", "syntax", "sandbox", "json", "config-json", "square",
        "lshape"])
def test_cli_custom_config_errors_exit_one(tmp_path, capsys, flag, text,
                                           message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    arg = str(path) if flag == "--config" else f"custom:{path}"
    assert main(["run", flag, arg]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("expr", [
    "9**9**9 + 0*x", "1/0 + 0*x", "0**-1 + 0*x", "1 % 0 + 0*x",
    "10.0**400 + 0*x", "1" + "0" * 400 + " + 0*x",
], ids=["tower", "div", "pow", "mod", "overflow", "huge-literal"])
def test_cli_constant_arithmetic_exit_two(tmp_path, expr):
    # constants are floats, so no big-integer power runs unbounded, and
    # an arithmetic error is one error line, not a traceback
    path = tmp_path / "const.json"
    path.write_text(json.dumps({"domain": {"type": "square"},
                                "f": "-2 + 0*x", "g": expr}))
    proc = subprocess.run(
        [sys.executable, "-m", "obstacle_afem.cli", "run", "--problem",
         f"custom:{path}", "--max-elements", "50"],
        env=cli_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


_SQUARE = {"domain": {"type": "square"}, "f": "0*x", "g": "0*x"}


@pytest.mark.parametrize("flag,cfg,message", [
    ("--config", [1, 2], "JSON object"),
    ("--config", {"theta": [0.5]}, "'theta'"),
    ("--config", {"theta": None}, "'theta'"),
    ("--config", {"max_elements": 300.5}, "'max_elements'"),
    ("--config", {"max-level": True}, "'max-level'"),
    ("--config", {"problem": 1}, "'problem'"),
    ("--config", {"out": 5}, "'out'"),
    ("--problem", ["square"], "JSON object"),
    ("--problem", {**_SQUARE, "g": 0}, "'g'"),
    ("--problem", {**_SQUARE, "domain": ["square"]}, "'domain'"),
    ("--problem", {**_SQUARE, "domain": {"type": 1}}, "'type'"),
    ("--problem", {**_SQUARE, "domain": {"type": "square", "xmin": "a"}},
     "'xmin'"),
    ("--problem", {**_SQUARE, "domain": {"type": "lshape",
                                         "half_width": None}},
     "'half_width'"),
    ("--problem", {**_SQUARE, "chi": "0*x"}, "'chi'"),
    ("--problem", {**_SQUARE, "chi": {"value": "0*x", "laplacian": 0}},
     "'laplacian'"),
])
def test_cli_config_of_the_wrong_shape_exit_one(tmp_path, capsys, flag,
                                                cfg, message):
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(cfg))
    arg = str(path) if flag == "--config" else f"custom:{path}"
    assert main(["run", flag, arg, "--max-elements", "10"]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_cli_config_null_where_the_default_is_null(tmp_path, capsys):
    cfg = tmp_path / "null.json"
    cfg.write_text(json.dumps({"out": None, "reference_elements": None,
                               "max_elements": 10, "theta": 1}))
    # theta 1 is a number, so the file is read; run() then rejects it
    assert main(["run", "--config", str(cfg)]) == 1
    assert "theta must lie in (0, 1)" in capsys.readouterr().err
    assert main(["run", "--config", str(cfg), "--theta", "0.5"]) == 0
    capsys.readouterr()


def test_cli_non_finite_estimator_stops_at_its_level(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"domain": {"type": "square"},
                                "f": "1e200 + 0*x", "g": "0*x"}))
    out = tmp_path / "huge.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", "--problem", f"custom:{path}",
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "level 0" in err and "not finite" in err
    assert not out.exists()
    assert not [w for w in caught if w.category is RuntimeWarning]


def test_cli_failed_run_writes_finished_levels(tmp_path, monkeypatch,
                                               capsys):
    import obstacle_afem.adapt as adapt
    solve = adapt.solve_obstacle
    calls = []

    def failing_solve(*args, **kwargs):
        calls.append(1)
        if len(calls) == 4:
            raise RuntimeError("solver broke")
        return solve(*args, **kwargs)

    monkeypatch.setattr(adapt, "solve_obstacle", failing_solve)
    out = tmp_path / "partial.csv"
    assert main(["run", "--problem", "example1", "--out", str(out)]) == 2
    assert "solver broke" in capsys.readouterr().err
    rows = list(csv.DictReader(open(out)))
    assert [int(r["level"]) for r in rows] == [0, 1, 2]


def test_cli_flag_equal_to_default_beats_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": "example1", "theta": 0.8,
                               "max-elements": 300}))
    out = tmp_path / "flag.csv"
    assert main(["run", "--config", str(cfg), "--theta", "0.5",
                 "--out", str(out)]) == 0
    plain = tmp_path / "plain.csv"
    run(RunConfig(problem="example1", theta=0.5, max_elements=300,
                  out=str(plain)))
    from_file = tmp_path / "file.csv"
    run(RunConfig(problem="example1", theta=0.8, max_elements=300,
                  out=str(from_file)))

    def n_column(path):
        return [row["N"] for row in csv.DictReader(open(path))]

    assert n_column(out) == n_column(plain)
    assert n_column(plain) != n_column(from_file)


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
