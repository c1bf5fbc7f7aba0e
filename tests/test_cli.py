import ast
import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obstacle_afem.cli import RunConfig, _read_config, fit_rates, main, run
from obstacle_afem.mesh import LShape, Square
from obstacle_afem.problems import (_EXPR_NAMES, _compile_expr,
                                    load_custom, read_json)


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
                             "eps", "pdas_iters", "wall_ms", "cg_iters",
                             "du_norm"]
    for row, record in zip(rows, records):
        for key in ("rho", "rho_tilde", "apx", "J", "eps", "wall_ms"):
            assert np.isfinite(float(row[key]))
        assert int(row["cg_iters"]) == record.cg_iters
        assert row["du_norm"] == ("" if record.level == 0
                                  else repr(record.du_norm))
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
    """Environment for a CLI subprocess that imports this ``src/``, with
    numpy's RuntimeWarnings as errors, as in-process tests have them."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning", **extra,
                PYTHONPATH=os.pathsep.join(
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


@pytest.mark.parametrize("args,max_elements,slopes", [
    (["--problem", "example1", "--theta", "0.8"], 4000, (-0.8, -0.3)),
    # eps against the reference loop's 24,576-element uniform mesh
    (["--problem", "example2", "--mode", "uniform", "--reference-elements",
      "25000"], 1500, (-0.3, -0.15)),
], ids=["example1", "example2-uniform-reference"])
def test_cli_run_and_fit_roundtrip(tmp_path, capsys, args, max_elements,
                                   slopes):
    out = tmp_path / "run.csv"
    code = main(["run", *args, "--max-elements", str(max_elements),
                 "--out", str(out)])
    assert code == 0
    rows = list(csv.DictReader(open(out)))
    assert max_elements <= int(rows[-1]["N"]) <= 4 * max_elements
    assert all(float(row["eps"]) > 0 for row in rows)
    code = main(["fit-rates", str(out), "--quantity", "sqrt_eps",
                 "--window", "5"])
    assert code == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert line.endswith("points=5")
    slope = float(line.split()[0].split("=")[1])
    assert slopes[0] < slope < slopes[1]


def test_cli_uniform_quadruples(tmp_path):
    out = tmp_path / "u.csv"
    assert main(["run", "--problem", "example1", "--mode", "uniform",
                 "--max-elements", "600", "--out", str(out)]) == 0
    ns = [int(r["N"]) for r in csv.DictReader(open(out))]
    assert ns == [2, 8, 32, 128, 512, 2048]


def test_cli_usage_errors_exit_one(capsys):
    assert main(["run", "--theta", "1.5"]) == 1
    assert main(["run", "--problem", "nonsense"]) == 1
    capsys.readouterr()
    # the flag meets run()'s mode check, as a config file value does
    assert main(["run", "--mode", "sideways"]) == 1
    assert "usage error: unknown mode 'sideways'" in capsys.readouterr().err


def test_cli_config_mode_is_checked_by_run(tmp_path, capsys):
    # a mode from the config file meets the same check as the flag
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"mode": "sideways"}))
    assert main(["run", "--config", str(path)]) == 1
    assert "usage error: unknown mode 'sideways'" in capsys.readouterr().err


def test_cli_run_flags_are_the_run_config_fields(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    flags = re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.M)
    assert flags == ["--" + f.name.replace("_", "-")
                     for f in fields(RunConfig)] + ["--config"]


@pytest.mark.parametrize("value,code,message", [
    ("-5", 1, "--reference-elements must be at least 1, not -5"),
    ("0", 1, "--reference-elements must be at least 1, not 0"),
    ("5", 1, "--reference-elements must be at least 40 (four times the "
             "larger of --max-elements (10) and the coarse mesh's 6 elements)"),
])
def test_cli_reference_elements_out_of_range(capsys, value, code, message):
    assert main(["run", "--problem", "example2", "--reference-elements",
                 value, "--max-elements", "10"]) == code
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("args,message", [
    # the reference would be the run's own last mesh
    (["--max-elements", "30000", "--reference-elements", "200000"],
     "at least 393216 (four times the run's last mesh of 98304 elements), "
     "not 200000"),
    (["--max-elements", "100", "--reference-elements", "50"],
     "at least 1536 (four times the run's last mesh of 384 elements), "
     "not 50"),
], ids=["its-last-mesh", "below-its-last-mesh"])
def test_cli_uniform_reference_coarser_than_four_times_the_run_exits_one(
        capsys, monkeypatch, args, message):
    import obstacle_afem.cli as cli

    def unreachable(*args, **kwargs):
        raise AssertionError("a level was solved")

    monkeypatch.setattr(cli, "reference_energy", unreachable)
    monkeypatch.setattr(cli, "run_uniform", unreachable)
    assert main(["run", "--problem", "example2", "--mode", "uniform",
                 *args]) == 1
    assert capsys.readouterr().err.splitlines()[0] == \
        f"usage error: --reference-elements must be {message}"


def test_cli_adaptive_eps_falls_against_the_continued_sequence(tmp_path):
    # J_ref is the last energy of the same adaptive sequence continued to
    # --reference-elements, so eps falls as the run's levels near it
    out = tmp_path / "e2.csv"
    assert main(["run", "--problem", "example2", "--max-elements", "2000",
                 "--reference-elements", "20000", "--out", str(out)]) == 0
    eps = [float(r["eps"]) for r in csv.DictReader(open(out))]
    assert eps[-3] > eps[-2] > eps[-1] > 0.0


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
    (["--quantity", "sqrt_eps"], "--quantity sqrt_eps needs the eps column"),
    (["--quantity", "sqrt_eps"], "rates.csv lacks: a run writes it only "
                                 "with an exact or reference energy"),
], ids=["window-zero", "window-negative", "quantity", "sqrt-eps",
        "sqrt-eps-why"])
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


def test_cli_fit_rates_drops_negative_eps_cell(tmp_path, capsys):
    # a negative energy error has no square root; the fit drops the point
    # (as it drops q <= 0) without a RuntimeWarning
    path = tmp_path / "rates.csv"
    eps = [4.0 ** -k for k in range(5)]
    eps[2] = -eps[2]
    path.write_text("level,N,eps\n" + "".join(
        f"{k},{2 * 4 ** k},{e!r}\n" for k, e in enumerate(eps)))
    assert main(["fit-rates", str(path), "--quantity", "sqrt_eps"]) == 0
    assert capsys.readouterr().out.strip().endswith("points=4")


def test_cli_fit_rates_all_equal_n_exit_two(tmp_path, capsys):
    # one N has no slope; polyfit would warn and print a meaningless one
    path = tmp_path / "rates.csv"
    path.write_text("level,N,rho\n" + "".join(
        f"{k},100,{0.5 ** k!r}\n" for k in range(4)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["fit-rates", str(path)]) == 2
    err = capsys.readouterr().err
    assert ("rate fit needs at least 4 finite positive points and two "
            "distinct N") in err
    assert "Traceback" not in err
    assert not [w for w in caught if w.category.__name__ == "RankWarning"]


def test_cli_numerical_failure_exit_two(tmp_path, capsys):
    # a file that cannot be opened: one "error: [Errno ...]" line each
    missing = tmp_path / "nope.json"
    for argv in (["run", "--problem", f"custom:{missing}"],
                 ["run", "--config", str(missing)],
                 ["run", "--config", str(tmp_path)],
                 ["fit-rates", str(tmp_path / "nope.csv")]):
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: [Errno "), argv


@pytest.mark.parametrize("key,expr,message", [
    ("g", "sqrt(x - 0.5)", "Dirichlet data g is not finite"),
    ("f", "log(x - 0.5)", "load f is not finite"),
    ("chi", {"value": "where(abs(x - 0.5) < 0.1, log(x - 2), 0*x) - 1",
             "laplacian": "0*x"},
     "shifted Dirichlet data g - chi are not finite"),
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


def test_cli_g_infinite_at_a_new_boundary_node_exit_two(tmp_path, capsys):
    # finite at every sample of apx on the coarse edges, infinite at the
    # node x = 5/16 that level 4 creates: interpolate_boundary's own check
    path, out = tmp_path / "pole.json", tmp_path / "pole.csv"
    path.write_text(json.dumps({"domain": {"type": "square"},
                                "f": "-2 + 0*x",
                                "g": "1/(x - 0.3125)**2 + 0*y"}))
    assert main(["run", "--problem", f"custom:{path}", "--mode", "uniform",
                 "--max-elements", "3000", "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: Dirichlet data g is not finite at a boundary node"]
    rows = csv_numbers(out)
    assert [r["level"] for r in rows] == [0, 1, 2, 3]
    assert [r["N"] for r in rows] == [2, 8, 32, 128]


@pytest.mark.parametrize("chi,code,message", [
    ("5e-11", 0, ""),
    ("2e-10", 2, "chi > g on the boundary"),
])
def test_cli_boundary_tolerance_is_one_rule(tmp_path, capsys, chi, code,
                                            message):
    # g - chi = -5e-11 on the boundary passes the transform and the
    # solver alike; -2e-10 is rejected by the transform
    path = tmp_path / "tol.json"
    path.write_text(json.dumps({"domain": {"type": "square"}, "f": "-1",
                                "g": "0",
                                "chi": {"value": chi, "laplacian": "0"}}))
    assert main(["run", "--problem", f"custom:{path}",
                 "--max-elements", "200"]) == code
    assert message in capsys.readouterr().err


def test_cli_obstacle_shifts_the_trace_of_apx(tmp_path):
    # g is affine and g - chi is not: apx is 0.0068 or more on the shifted
    # trace, and about 1e-12 (the central difference's rounding) on g
    path, out = tmp_path / "chi.json", tmp_path / "chi.csv"
    path.write_text(json.dumps({
        "domain": {"type": "square"}, "f": "-1 + 0*x", "g": "0.3 + 0.1*x",
        "chi": {"value": "0.1*sin(4*x)", "laplacian": "-1.6*sin(4*x)"}}))
    assert main(["run", "--problem", f"custom:{path}", "--max-elements",
                 "500", "--out", str(out)]) == 0
    rows = list(csv.DictReader(open(out)))
    assert rows and all(float(row["apx"]) > 1e-3 for row in rows)


def test_cli_negative_g_without_obstacle_stops_before_level_zero(tmp_path):
    # g = -1 in a dip at x = 0.3 on the boundary, between the coarse
    # nodes: the boundary sample rejects it before any level is solved
    path = tmp_path / "dip.json"
    path.write_text(json.dumps({"domain": {"type": "square"}, "f": "0*x",
                                "g": "1 - 2*exp(-10000*(x - 0.3)**2)"}))
    out = tmp_path / "dip.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "obstacle_afem.cli", "run", "--problem",
         f"custom:{path}", "--max-elements", "300", "--out", str(out)],
        env=cli_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error: g < 0 on the boundary"]
    assert not out.exists()


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
    ("--problem", json.dumps({"domain": {"type": "square",
                                         "xmax": float("inf")},
                              "f": "0*x", "g": "0*x"}),
     "degenerate square domain"),
    ("--problem", json.dumps({"domain": {"type": "lshape",
                                         "half_width": float("inf")},
                              "f": "0*x", "g": "0*x"}),
     "degenerate L-shape domain"),
    ("--problem", json.dumps({"domain": {"type": "square", "xmax": 10**400},
                              "f": "0*x", "g": "0*x"}),
     "degenerate square domain"),
    ("--problem", json.dumps({"domain": {"type": "lshape",
                                         "half_width": 10**400},
                              "f": "0*x", "g": "0*x"}),
     "degenerate L-shape domain"),
    ("--problem", json.dumps({"domain": {"type": "square", "xmax": 1e300,
                                         "ymax": 1e300},
                              "f": "0*x", "g": "0*x"}),
     "degenerate square domain"),
    ("--problem", json.dumps({"domain": {"type": "square", "xmax": 1e-200,
                                         "ymax": 1e-200},
                              "f": "0*x", "g": "0*x"}),
     "degenerate square domain"),
    ("--problem", json.dumps({"domain": {"type": "lshape",
                                         "half_width": 1e-170},
                              "f": "0*x", "g": "0*x"}),
     "degenerate L-shape domain"),
    ("--problem", json.dumps({"name": 5, "domain": {"type": "square"},
                              "f": "0*x", "g": "0*x"}),
     "key 'name' must be a string"),
    *(("--problem", json.dumps({"domain": {"type": "square"}, "f": f,
                                "g": "0*x"}), message)
      for f, message in [
          # hypot's third argument was its out: f ran as r, not x
          ("x + 0*hypot(x, y, x)", "hypot takes 2 argument(s), not 3"),
          ("arctan2(x)", "arctan2 takes 2 argument(s), not 1"),
          ("sin()", "sin takes 1 argument(s), not 0"),
          ("maximum(x)", "maximum takes 2 argument(s), not 1"),
          ("where(x > 0, 1)", "where takes 3 argument(s), not 2"),
          ("0 < x < 1", "a comparison takes one operator"),
          ("(x < 1) | y", "'bitwise_or' not supported"),
          ("sin + x", "function sin is not called"),
          ("-where", "function where is not called"),
          # x lies in (0.3, 0.7) at no node of the coarse mesh
          ("where((x > 0.3) & (x < 0.7), sin, 1)",
           "function sin is not called"),
          ("(-1)**0.5 + 0*x", "Cannot cast"),
      ]),
], ids=["domain", "syntax", "sandbox", "json", "config-json", "square",
        "lshape", "square-inf", "lshape-inf", "square-huge-int",
        "lshape-huge-int", "square-area-overflow", "square-tiny",
        "lshape-tiny", "name-number", "out-argument", "arctan2-arity",
        "sin-arity", "maximum-arity", "where-arity", "chained-comparison",
        "bitwise-float", "bare-function", "negated-function",
        "function-value", "complex"])
def test_cli_custom_config_errors_exit_one(tmp_path, capsys, flag, text,
                                           message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    arg = str(path) if flag == "--config" else f"custom:{path}"
    assert main(["run", flag, arg]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert len([line for line in err.splitlines()
                if not line.startswith("usage: ")]) == 1


# Expressions from the whitelisted grammar, well-formed or not: names
# (functions included), numbers, calls with 0 to 3 arguments or with the
# function's own count, and the operators, these mostly without
# parentheses, so that comparisons chain.
_OPERATORS = ["+", "-", "*", "/", "//", "%", "**", "&", "|", "==", "!=",
              "<", "<=", ">", ">="]
_ARITY = {n: getattr(v, "nin", 3) for n, v in _EXPR_NAMES.items()
          if callable(v)}


def _call(fn, args):
    return f"{fn}({', '.join(args)})"


_expressions = st.recursive(
    st.sampled_from(["x", "y", "r", *_EXPR_NAMES, "0", "2", "0.5", "1e300"]),
    lambda inner: st.one_of(
        st.builds(_call, st.sampled_from(list(_ARITY)),
                  st.lists(inner, max_size=3)),
        st.sampled_from(list(_ARITY)).flatmap(lambda fn: st.lists(
            inner, min_size=_ARITY[fn], max_size=_ARITY[fn]).map(
                lambda args: _call(fn, args))),
        st.builds(lambda a, op, b: f"{a} {op} {b}",
                  inner, st.sampled_from(_OPERATORS), inner),
        st.builds(lambda op, a: f"{op}{a}", st.sampled_from("-+"), inner),
        inner.map(lambda a: f"({a})")),
    max_leaves=6)


def csv_numbers(path):
    """The rows of a run's CSV as numbers, without ``wall_ms``: -0.0
    equals 0.0, and an empty cell stays empty."""
    with open(path, newline="") as fh:
        return [{k: v and float(v) for k, v in row.items() if k != "wall_ms"}
                for row in csv.DictReader(fh)]


def tiny_run(tmp, cfg, mode):
    """Exit code and CSV numbers of a run of ``cfg`` to 8 elements, which
    must end in a run, a config error or a numerical failure, each with
    at most one error line and no traceback or warning."""
    path, out = tmp / "expr.json", tmp / "run.csv"
    path.write_text(json.dumps(cfg))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", "--problem", f"custom:{path}", "--mode", mode,
                     "--max-elements", "8", "--out", str(out)])
    lines = [line for line in err.getvalue().splitlines()
             if not line.startswith("usage: ")]
    assert code in (0, 1, 2)
    assert len(lines) == (code != 0)
    assert "Traceback" not in err.getvalue()
    return code, code == 0 and csv_numbers(out)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(key=st.sampled_from(["f", "g"]), expr=_expressions,
       domain=st.sampled_from(["square", "lshape"]), chi=st.booleans(),
       mode=st.sampled_from(["adaptive", "uniform"]), data=st.data())
def test_cli_generated_expressions_fail_cleanly(tmp_path_factory, key, expr,
                                                domain, chi, mode, data):
    # any expression in any config shape fails cleanly, if at all; a run
    # keeps its numbers when f gains 0 times one of the expression's
    # subexpressions, so no call writes into or aliases its arguments
    tmp = tmp_path_factory.mktemp("fuzz")
    cfg = {"domain": {"type": domain}, "f": "0*x", "g": "0*x", key: expr}
    if chi:
        cfg["chi"] = {"value": "-1 + 0*x", "laplacian": "0*x"}
    code, table = tiny_run(tmp, cfg, mode)
    if code != 0:
        return
    tree = ast.parse(expr, mode="eval")
    callees = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
    sub = data.draw(st.sampled_from([
        ast.unparse(n) for n in ast.walk(tree.body)
        if isinstance(n, ast.expr) and id(n) not in callees]))
    cfg["f"] = f"({cfg['f']}) + 0*({sub})"
    code, rerun = tiny_run(tmp, cfg, mode)
    # 0 times an infinite subexpression is NaN: a numerical failure
    assert code in (0, 2)
    assert code == 2 or rerun == table


def test_cli_function_of_a_comparison_runs_like_its_float(tmp_path):
    # sin of a comparison ran in float16 and silently changed the run
    tables = []
    for f in ("sin(x > 0.5)", "sin(1.0*(x > 0.5))"):
        path, out = tmp_path / "cfg.json", tmp_path / "run.csv"
        path.write_text(json.dumps({"domain": {"type": "square"}, "f": f,
                                    "g": "0*x"}))
        assert main(["run", "--problem", f"custom:{path}", "--max-elements",
                     "300", "--out", str(out)]) == 0
        tables.append(csv_numbers(out))
    assert len(tables[0]) > 3
    assert tables[0] == tables[1]


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
    ("--problem", {**_SQUARE, "domain": {"type": "square", "x_max": 2.0}},
     "unknown key 'x_max'"),
    ("--problem", {**_SQUARE, "chii": {"value": "0*x", "laplacian": "0*x"}},
     "unknown key 'chii'"),
    ("--problem", {**_SQUARE, "chi": {"value": "0*x", "laplacian": "0*x",
                                      "lapalcian": "1 + 0*x"}},
     "unknown key 'lapalcian'"),
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


@pytest.mark.parametrize("flag,text,key", [
    # json.load keeps the last value: this file ran with g = 0
    ("--problem", '{"domain": {"type": "square"}, "f": "-2 + 0*x", '
                  '"g": "1 + 0*x", "g": "0*x"}', "g"),
    ("--problem", '{"domain": {"type": "square", "xmax": 2, "xmax": 3}, '
                  '"f": "0*x", "g": "0*x"}', "xmax"),
    ("--problem", '{"domain": {"type": "square"}, "f": "0*x", "g": "0*x", '
                  '"chi": {"value": "0*x", "laplacian": "0*x", '
                  '"value": "-1 + 0*x"}}', "value"),
    ("--config", '{"theta": 0.3, "theta": 0.6}', "theta"),
    # two spellings of one field: this file ran with 200 elements
    ("--config", '{"mode": "uniform", "max-elements": 10, '
                 '"max_elements": 200}', "max_elements"),
], ids=["custom", "domain", "chi", "config", "config-spellings"])
def test_cli_key_given_twice_exit_one(tmp_path, capsys, flag, text, key):
    path = tmp_path / "twice.json"
    path.write_text(text)
    arg = str(path) if flag == "--config" else f"custom:{path}"
    assert main(["run", flag, arg, "--max-elements", "50"]) == 1
    err = [line for line in capsys.readouterr().err.splitlines()
           if not line.startswith("usage: ")]
    assert len(err) == 1 and f"key {key!r} is given twice" in err[0]


@pytest.mark.parametrize("flag,prefix", [
    ("--config", '{"theta": '),
    ("--problem", '{"f": "0*x", "g": "0*x", "domain": '),
], ids=["config", "domain"])
def test_cli_json_nested_past_the_recursion_limit_exit_one(tmp_path, capsys,
                                                          flag, prefix):
    # json's RecursionError used to pass as a numerical failure (exit 2)
    path = tmp_path / "deep.json"
    depth = 100_000
    path.write_text(prefix + "[" * depth + "]" * depth + "}")
    arg = str(path) if flag == "--config" else f"custom:{path}"
    assert main(["run", flag, arg, "--max-elements", "50"]) == 1
    err = [line for line in capsys.readouterr().err.splitlines()
           if not line.startswith("usage: ")]
    assert len(err) == 1 and f"{path}: JSON nested too deeply" in err[0]


def test_read_json_checks_each_key_once(tmp_path):
    # the check for a key given twice used to compare each key with every
    # earlier one: 16,000 keys took 7 s before the unknown key was named
    path = tmp_path / "keys.json"
    n = 5000
    path.write_text(json.dumps({f"k{i}": i for i in range(n)}))
    calls = []

    def same_key(key):
        calls.append(key)
        return key

    with pytest.raises(ValueError, match="unknown key 'k0'"):
        read_json(path, {}, same_key)
    assert len(calls) <= 2 * n


def test_cli_expression_nested_past_the_recursion_limit_exit_one(
        tmp_path, capsys):
    # a long sum is a deep tree: compiling it used to exit 2 with
    # "maximum recursion depth exceeded"
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"domain": {"type": "square"},
                                "f": "x" + "+x" * 1999, "g": "0*x"}))
    assert main(["run", "--problem", f"custom:{path}"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("usage error: bad custom problem config: "
                             "expression")
    assert err[0].endswith("nested too deeply")


# numpy's message for an expression of the wrong type
_BITWISE_FLOAT_REASON = str(pytest.raises(
    TypeError, eval, "(x < 1) | y", {"x": np.ones(2), "y": np.ones(2)}).value)


# an expression of each error path, with the reason its line ends with
@pytest.mark.parametrize("expr,code,reason", [
    ("x" + "+x" * 1999, 1, "nested too deeply"),
    ("foo(x)" + "+x" * 300, 1, "Call is not allowed"),
    ("(x < 1) | y" + "+x" * 300, 1, _BITWISE_FLOAT_REASON),
    ("1/0" + "+x" * 500, 2, "float division by zero"),
], ids=["nesting", "rejection", "type", "constant"])
def test_cli_long_expression_error_is_short(tmp_path, capsys, expr, code,
                                            reason):
    # the expression is quoted by its first 80 characters and its length,
    # not whole
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"domain": {"type": "square"}, "f": expr,
                                "g": "0*x"}))
    assert main(["run", "--problem", f"custom:{path}"]) == code
    line = capsys.readouterr().err.splitlines()[0]
    assert line.endswith(f"'{expr[:80]}'... ({len(expr)} characters): "
                         f"{reason}")
    assert len(line) - len(reason) < 200


@pytest.mark.parametrize("expr,quoted", [
    ("foo(x)" + "+x" * 37, repr),
    ("foo(xx)" + "+x" * 37, lambda e: f"'{e[:80]}'... (81 characters)"),
], ids=["80", "81"])
def test_expression_error_quotes_at_most_80_characters(expr, quoted):
    with pytest.raises(ValueError) as info:
        _compile_expr(expr)
    assert str(info.value) == f"expression {quoted(expr)}: Call is not allowed"


# The layouts of both JSON inputs as the README states them, {key: JSON
# types}: the run config, whose keys may also be written with "-" for
# "_", the custom problem file, its domain by type, and chi.
_NUMBER, _TEXT, _NULL = (float, int), (str,), type(None)
_LAYOUTS = {
    "run": {"problem": _TEXT, "mode": _TEXT, "theta": _NUMBER,
            "max_elements": (int,), "max_level": (int,),
            "out": (str, _NULL), "dump_mesh": (str, _NULL),
            "dump_indicators": (str, _NULL),
            "reference_elements": (int, _NULL)},
    "custom": {"name": _TEXT, "domain": (dict,), "f": _TEXT, "g": _TEXT,
               "chi": (dict,)},
    "square": {"type": _TEXT, "xmin": _NUMBER, "ymin": _NUMBER,
               "xmax": _NUMBER, "ymax": _NUMBER},
    "lshape": {"type": _TEXT, "half_width": _NUMBER},
    "chi": {"value": _TEXT, "laplacian": _TEXT},
}
_JSON = {_NULL: st.none(), bool: st.booleans(), int: st.integers(-9, 9),
         float: st.floats(-9, 9), str: st.text(max_size=4),
         list: st.lists(st.integers(-9, 9), max_size=2),
         dict: st.dictionaries(st.text(max_size=2), st.integers(-9, 9),
                               max_size=2)}
_ANY = st.one_of(*_JSON.values())
# bounds that keep the domain valid whichever of them are left out
_LOW = st.one_of(st.integers(-5, 0), st.floats(-5, 0.25))
_HIGH = st.one_of(st.integers(1, 5), st.floats(0.75, 5))
_BOUNDS = {"xmin": _LOW, "ymin": _LOW, "xmax": _HIGH, "ymax": _HIGH,
           "half_width": _HIGH}
_CONSTANT = st.floats(-9, 9).map(repr)


class _Pairs(list):
    """A JSON object as a list of (key, value) pairs: a key may repeat."""


def _dumps(value):
    if isinstance(value, _Pairs):
        return "{" + ", ".join(f"{json.dumps(k)}: {_dumps(v)}"
                               for k, v in value) + "}"
    return json.dumps(value)


def _run_spellings(key):
    return [key, key.replace("_", "-")]


def _one_spelling(key):
    return [key]


def _draw_object(data, keys, value, spellings=_one_spelling):
    """Some of ``keys`` in any order, each in one of its spellings, with
    a value drawn from ``value(key)``."""
    return _Pairs(data.draw(st.permutations(
        [(data.draw(st.sampled_from(spellings(k))), data.draw(value(k)))
         for k in keys if data.draw(st.booleans())])))


def _custom_file(data, with_chi):
    """A valid custom problem file and its domain class: constant
    expressions, and bounds that keep the domain valid."""
    shape = data.draw(st.sampled_from([Square, LShape]))
    kind = shape.__name__.lower()
    domain = _draw_object(data, [k for k in _LAYOUTS[kind] if k != "type"],
                          _BOUNDS.get)
    domain.insert(data.draw(st.integers(0, len(domain))), ("type", kind))
    pairs = [("domain", domain), ("f", data.draw(_CONSTANT)),
             ("g", data.draw(_CONSTANT))]
    if data.draw(st.booleans()):
        pairs.append(("name", data.draw(st.text(max_size=4))))
    if with_chi:
        pairs.append(("chi", _Pairs([("value", data.draw(_CONSTANT)),
                                     ("laplacian", data.draw(_CONSTANT))])))
    return _Pairs(data.draw(st.permutations(pairs))), shape


def _break(data, obj, layout, change, spellings):
    """Give ``obj`` an unknown key, a value of another JSON type or a key
    twice; the key the error must name."""
    if change == "unknown":
        known = {s for k in layout for s in spellings(k)}
        key = data.draw(st.text(max_size=6).filter(lambda k: k not in known))
        obj.insert(data.draw(st.integers(0, len(obj))), (key, data.draw(_ANY)))
        return key
    name = data.draw(st.sampled_from(list(layout)))
    obj[:] = [(k, v) for k, v in obj if k not in spellings(name)]
    spelled = st.sampled_from(spellings(name))
    # a key given twice has values of its types, so that is the only fault
    value = st.sampled_from([t for t in _JSON if (t in layout[name])
                             == (change == "twice")]).flatmap(_JSON.get)
    at = data.draw(st.integers(0, len(obj)))
    if change == "twice":
        obj.insert(at, (data.draw(spelled), data.draw(value)))
        at = data.draw(st.integers(at + 1, len(obj)))
    key = data.draw(spelled)
    obj.insert(at, (key, data.draw(value)))
    return key


@pytest.mark.parametrize("target", ["run", "custom", "domain", "chi"])
@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(data=st.data(),
       change=st.sampled_from([None, "unknown", "type", "twice"]))
def test_json_inputs_follow_one_layout_rule(tmp_path_factory, target, data,
                                            change):
    # a conforming object is read with its values; an unknown key, a value
    # of another JSON type and a key given twice raise naming that key
    if target == "run":
        layout, spellings = _LAYOUTS["run"], _run_spellings
        top = obj = _draw_object(data, layout, lambda k: st.one_of(
            *(_JSON[t] for t in layout[k])), spellings)
    else:
        top, shape = _custom_file(
            data, target == "chi" or data.draw(st.booleans()))
        cfg = dict(top)
        kind = shape.__name__.lower()
        layout = _LAYOUTS[kind if target == "domain" else target]
        obj, spellings = top if target == "custom" else cfg[target], \
            _one_spelling
    key = change and _break(data, obj, layout, change, spellings)
    path = tmp_path_factory.mktemp("layout") / "input.json"
    path.write_text(_dumps(top))
    read = _read_config if target == "run" else load_custom
    if change:
        with pytest.raises(ValueError) as err:
            read(str(path))
        assert repr(key) in str(err.value)
    elif target == "run":
        assert read(str(path)) == {k.replace("-", "_"): v for k, v in top}
    else:
        spec = read(str(path))
        assert spec.name == cfg.get("name", "custom")
        assert type(spec.domain) is shape
        assert asdict(spec.domain) == {**asdict(shape()), **{
            k: v for k, v in cfg["domain"] if k != "type"}}
        assert [spec.f(0.0, 0.0), spec.g(0.0, 0.0)] \
            == [float(cfg["f"]), float(cfg["g"])]
        chi = dict(cfg.get("chi", {}))
        assert (spec.chi is None) == (not chi)
        if chi:
            assert [spec.chi.value(0.0, 0.0), spec.chi.laplacian(0.0, 0.0)] \
                == [float(chi["value"]), float(chi["laplacian"])]


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


@pytest.mark.parametrize("key,expr", [
    ("f", "1e200*x"), ("g", "1e200*(x*x+y)"),
], ids=["oscillation", "apx-and-energy"])
def test_cli_overflow_of_finite_data_is_one_error_line(tmp_path, key, expr):
    # f overflows the oscillation variance, g the apx square and the
    # energy: each inf reaches the loop's check without a numpy warning
    cfg = {"domain": {"type": "square"}, "f": "1 + 0*x", "g": "0*x"}
    cfg[key] = expr
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(cfg))
    proc = subprocess.run(
        [sys.executable, "-m", "obstacle_afem.cli", "run", "--problem",
         f"custom:{path}"],
        env=cli_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "error: level 0: estimator is not finite"]


@pytest.mark.parametrize("key,expr,line", [
    ("f", "1e155*x", "error: CG right-hand side norm is not finite"),
    ("g", "1e300*x", "error: reference level 0: energy is not finite"),
], ids=["cg-norm", "reference-energy"])
def test_cli_overflow_in_the_reference_loop_is_one_error_line(
        tmp_path, key, expr, line):
    # the reference loop runs before the main loop: a norm of the CG
    # right-hand side or an energy that overflows stops it with one line
    cfg = {"domain": {"type": "square"}, "f": "1 + 0*x", "g": "0*x"}
    cfg[key] = expr
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(cfg))
    proc = subprocess.run(
        [sys.executable, "-m", "obstacle_afem.cli", "run", "--problem",
         f"custom:{path}", "--mode", "uniform", "--max-elements", "300",
         "--reference-elements", "2048"],
        env=cli_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [line]


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


@pytest.mark.parametrize("args", [
    ["--problem", "example1", "--max-elements", "100"],
    ["--problem", "example2", "--mode", "uniform", "--max-elements", "1500"],
], ids=["example1", "example2-uniform"])
def test_cli_dump_flags(tmp_path, args):
    mesh_path = tmp_path / "mesh.txt"
    ind_path = tmp_path / "ind.csv"
    assert main(["run", *args, "--dump-mesh", str(mesh_path),
                 "--dump-indicators", str(ind_path)]) == 0
    mesh_lines = mesh_path.read_text().splitlines()
    ind_lines = ind_path.read_text().splitlines()
    header = re.fullmatch(r"nodes (\d+) triangles (\d+)", mesh_lines[0])
    n, m = map(int, header.groups())
    assert ind_lines[0] == "edge_id,kind,eta2,osc2,apx2"
    # a header, then one row per node and per triangle; one row per edge,
    # E = N + M - 1 on a simply connected domain
    assert len(mesh_lines) == 1 + n + m
    assert len(ind_lines) == n + m
