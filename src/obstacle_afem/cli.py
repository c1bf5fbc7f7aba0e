"""Command-line front end: experiment runs, CSV output, rate fits."""

import argparse
import csv
import json
import sys
from dataclasses import dataclass

import numpy as np

from .adapt import run_adaptive, run_uniform
from .estimator import dump_indicators
from .mesh import dump_mesh
from .problems import example1, example2, load_custom, reference_energy

__all__ = ["RunConfig", "RateFit", "run", "fit_rates", "main"]

CSV_COLUMNS = ["level", "N", "rho", "rho_tilde", "apx", "J", "eps",
               "pdas_iters", "wall_ms"]


@dataclass
class RunConfig:
    problem: str = "example1"
    mode: str = "adaptive"
    theta: float = 0.5
    max_elements: int = 50000
    max_level: int = 40
    out: str = None
    dump_mesh: str = None
    dump_indicators: str = None
    reference_elements: int = None


@dataclass
class RateFit:
    slope: float
    intercept: float
    n_points: int


class UsageError(ValueError):
    pass


def _load_problem(name):
    if name == "example1":
        return example1()
    if name == "example2":
        return example2()
    if name.startswith("custom:"):
        return load_custom(name.split(":", 1)[1])
    raise UsageError(f"unknown problem {name!r}")


def run(config):
    """Execute one experiment and write the per-level CSV.

    Returns the list of records.  The ``eps`` column is present only when
    an exact or reference energy is available.
    """
    if config.mode not in ("adaptive", "uniform"):
        raise UsageError(f"unknown mode {config.mode!r}")
    if config.mode == "adaptive" and not 0.0 < config.theta < 1.0:
        raise UsageError("theta must lie in (0, 1) in adaptive mode")

    problem = _load_problem(config.problem)
    ref = None
    if problem.exact_energy is None and config.reference_elements:
        ref = reference_energy(problem, n_target=config.reference_elements)

    kwargs = dict(max_elements=config.max_elements,
                  max_level=config.max_level, reference_energy=ref)
    if config.mode == "adaptive":
        result = run_adaptive(problem, config.theta, **kwargs)
    else:
        result = run_uniform(problem, **kwargs)

    if config.out:
        write_csv(result.records, config.out)
    if config.dump_mesh:
        dump_mesh(result.mesh, config.dump_mesh)
    if config.dump_indicators:
        dump_indicators(result.indicators, config.dump_indicators)
    return result.records


def write_csv(records, path):
    has_eps = all(r.eps is not None for r in records)
    columns = CSV_COLUMNS if has_eps else \
        [c for c in CSV_COLUMNS if c != "eps"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for r in records:
            row = {
                "level": r.level, "N": r.n_elements, "rho": repr(r.rho),
                "rho_tilde": repr(r.rho_tilde), "apx": repr(r.apx),
                "J": repr(r.energy),
                "eps": repr(r.eps) if r.eps is not None else "",
                "pdas_iters": r.pdas_iters, "wall_ms": repr(r.wall_ms),
            }
            writer.writerow([row[c] for c in columns])


def read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return list(reader)


def fit_rates(source, quantity, window=None):
    """Least-squares slope of log(quantity) against log(N).

    ``source`` is a CSV path or a list of records; ``window`` selects the
    last k levels (int) or an explicit (start, stop) level slice.  At
    least 4 points are required.
    """
    field = "eps" if quantity == "sqrt_eps" else quantity
    if isinstance(source, (str, bytes)):
        rows = read_csv(source)
        pairs = [(float(r["N"]), float(r[field])) for r in rows
                 if r.get(field)]
    else:
        pairs = []
        for r in source:
            value = getattr(r, field)
            if value is not None:
                pairs.append((float(r.n_elements), float(value)))
    if quantity == "sqrt_eps":
        pairs = [(n, np.sqrt(v)) for n, v in pairs]

    if isinstance(window, int):
        pairs = pairs[-window:]
    elif window is not None:
        start, stop = window
        pairs = pairs[start:stop]
    pairs = [(n, v) for n, v in pairs if v > 0]
    if len(pairs) < 4:
        raise ValueError("rate fit needs at least 4 positive data points")
    logn = np.log([n for n, _ in pairs])
    logq = np.log([v for _, v in pairs])
    slope, intercept = np.polyfit(logn, logq, 1)
    return RateFit(slope=float(slope), intercept=float(intercept),
                   n_points=len(pairs))


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser():
    parser = _Parser(prog="obstacle-afem",
                     description="Adaptive P1 FEM for 2D obstacle problems")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("--problem", default="example1",
                       help="example1 | example2 | custom:<path>")
    p_run.add_argument("--mode", default="adaptive",
                       choices=["adaptive", "uniform"])
    p_run.add_argument("--theta", type=float, default=0.5)
    p_run.add_argument("--max-elements", type=int, default=50000)
    p_run.add_argument("--max-level", type=int, default=40)
    p_run.add_argument("--out", default=None, help="per-level CSV path")
    p_run.add_argument("--dump-mesh", default=None)
    p_run.add_argument("--dump-indicators", default=None)
    p_run.add_argument("--reference-elements", type=int, default=None)
    p_run.add_argument("--config", default=None,
                       help="JSON config mirroring the flags")

    p_fit = sub.add_parser("fit-rates", help="log-log rate fit on a CSV")
    p_fit.add_argument("csv")
    p_fit.add_argument("--quantity", default="rho",
                       help="CSV column, or sqrt_eps")
    p_fit.add_argument("--window", type=int, default=None,
                       help="use only the last k levels")
    return parser


def _config_from_args(args):
    """RunConfig from the ``--config`` file and the flags; a flag wins
    over the file unless it still has its default value."""
    defaults = vars(_build_parser().parse_args(["run"]))
    keys = vars(RunConfig())
    values = {}
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        for key, val in file_cfg.items():
            name = key.replace("-", "_")
            if name not in keys:
                raise UsageError(f"unknown config key {key!r}")
            values[name] = val
    for key in keys:
        cli_val = getattr(args, key)
        if cli_val != defaults[key] or key not in values:
            values[key] = cli_val
    return RunConfig(**values)


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            config = _config_from_args(args)
            records = run(config)
            final = records[-1]
            print(f"levels={len(records)} N={final.n_elements} "
                  f"rho={final.rho:.6e}")
            return 0
        if args.command == "fit-rates":
            fit = fit_rates(args.csv, args.quantity, window=args.window)
            print(f"slope={fit.slope:.6f} intercept={fit.intercept:.6f} "
                  f"points={fit.n_points}")
            return 0
        return 1
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
