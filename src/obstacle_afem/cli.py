"""Command-line front end: experiment runs, CSV output, rate fits."""

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from .adapt import run_adaptive, run_uniform
from .estimator import dump_indicators
from .mesh import dump_mesh
from .problems import example1, example2, load_custom, reference_energy

__all__ = ["RunConfig", "RateFit", "run", "fit_rates", "main"]

CSV_COLUMNS = {"level": "level", "N": "n_elements", "rho": "rho",
               "rho_tilde": "rho_tilde", "apx": "apx", "J": "energy",
               "eps": "eps", "pdas_iters": "pdas_iters",
               "wall_ms": "wall_ms", "cg_iters": "cg_iters"}


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
        try:
            return load_custom(name.split(":", 1)[1])
        except KeyError as exc:
            raise UsageError(f"custom problem config misses key {exc}")
        except (ValueError, SyntaxError) as exc:
            raise UsageError(f"bad custom problem config: {exc}")
    raise UsageError(f"unknown problem {name!r}")


def run(config):
    """Execute one experiment and write the per-level CSV.

    Returns the list of records.  The ``eps`` column is present only when
    an exact or reference energy is available.  A run that fails writes
    the levels it finished before the error propagates.
    """
    if config.mode not in ("adaptive", "uniform"):
        raise UsageError(f"unknown mode {config.mode!r}")
    if config.mode == "adaptive" and not 0.0 < config.theta < 1.0:
        raise UsageError("theta must lie in (0, 1) in adaptive mode")
    if config.reference_elements is not None \
            and config.reference_elements < 1:
        raise UsageError(f"--reference-elements must be at least 1, "
                         f"not {config.reference_elements}")
    if config.max_level < 0:
        raise UsageError(f"--max-level must be at least 0, "
                         f"not {config.max_level}")
    if config.max_elements < 1:
        raise UsageError(f"--max-elements must be at least 1, "
                         f"not {config.max_elements}")
    for path in (config.out, config.dump_mesh, config.dump_indicators):
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            raise UsageError(f"output directory of {path!r} does not exist")
        if path and os.path.isdir(path):
            raise UsageError(f"output path {path!r} is a directory")

    problem = _load_problem(config.problem)
    ref = None
    if problem.exact_energy is None and config.reference_elements:
        ref = reference_energy(problem, n_target=config.reference_elements)

    kwargs = dict(max_elements=config.max_elements,
                  max_level=config.max_level, reference_energy=ref)
    try:
        if config.mode == "adaptive":
            result = run_adaptive(problem, config.theta, **kwargs)
        else:
            result = run_uniform(problem, **kwargs)
    except Exception as exc:
        partial = getattr(exc, "partial_records", None)
        if config.out and partial:
            write_csv(partial, config.out)
        raise

    if config.out:
        write_csv(result.records, config.out)
    if config.dump_mesh:
        dump_mesh(result.mesh, config.dump_mesh)
    if config.dump_indicators:
        dump_indicators(result.indicators, config.dump_indicators)
    return result.records


def write_csv(records, path):
    columns = {c: f for c, f in CSV_COLUMNS.items()
               if c != "eps" or all(r.eps is not None for r in records)}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for r in records:
            writer.writerow(repr(getattr(r, f)) for f in columns.values())


def fit_rates(n, q):
    """Least-squares slope of log(q) against log(n) over the points with
    finite n > 0 and finite q > 0, of which at least 4 are required."""
    n, q = np.asarray(n, dtype=float), np.asarray(q, dtype=float)
    keep = (n > 0) & (q > 0) & np.isfinite(n) & np.isfinite(q)
    n, q = n[keep], q[keep]
    if len(q) < 4:
        raise ValueError("rate fit needs at least 4 finite positive points")
    slope, intercept = np.polyfit(np.log(n), np.log(q), 1)
    return RateFit(slope=float(slope), intercept=float(intercept),
                   n_points=len(q))


def _rate_data(path, quantity, window):
    """``(N, quantity)`` of the last ``window`` levels of a run CSV that
    have a value; ``sqrt_eps`` is the square root of the ``eps`` column."""
    if window is not None and window < 1:
        raise UsageError(f"--window must be at least 1, not {window}")
    column = "eps" if quantity == "sqrt_eps" else quantity
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if column not in (reader.fieldnames or ()):
            raise UsageError(f"--quantity {quantity!r} is not a column "
                             f"of {path} or sqrt_eps")
        if "N" not in reader.fieldnames:
            raise UsageError(f"{path} has no N column")
        rows = [r for r in reader if r[column]]
    if window:
        rows = rows[-window:]
    try:
        q = [float(r[column]) for r in rows]
        n = [float(r["N"]) for r in rows]
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{path}: {exc}") from None
    return n, np.sqrt(q) if quantity == "sqrt_eps" else q


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser():
    """The top-level parser and its ``run`` subparser."""
    parser = _Parser(prog="obstacle-afem",
                     description="Adaptive P1 FEM for 2D obstacle problems")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("--problem",
                       help="example1 | example2 | custom:<path>")
    p_run.add_argument("--mode", choices=["adaptive", "uniform"])
    p_run.add_argument("--theta", type=float)
    p_run.add_argument("--max-elements", type=int)
    p_run.add_argument("--max-level", type=int)
    p_run.add_argument("--out", help="per-level CSV path")
    p_run.add_argument("--dump-mesh")
    p_run.add_argument("--dump-indicators")
    p_run.add_argument("--reference-elements", type=int)
    p_run.add_argument("--config", help="JSON config mirroring the flags")
    p_run.set_defaults(**vars(RunConfig()))

    p_fit = sub.add_parser("fit-rates", help="log-log rate fit on a CSV")
    p_fit.add_argument("csv")
    p_fit.add_argument("--quantity", default="rho",
                       help="CSV column, or sqrt_eps")
    p_fit.add_argument("--window", type=int, default=None,
                       help="use only the last k levels")
    return parser, p_run


def _parse_args(parser, p_run, argv):
    """Parse ``argv``; a ``run --config`` file supplies the defaults of
    the run flags, so that a flag given on the command line wins.  A
    file value has its flag's type, or is null where the default is."""
    args = parser.parse_args(argv)
    if args.command == "run" and args.config:
        with open(args.config) as fh:
            try:
                file_cfg = json.load(fh)
            except ValueError as exc:
                raise UsageError(f"bad config file: {exc}")
        if type(file_cfg) is not dict:
            raise UsageError("config file must hold a JSON object")
        run_fields = {f.name: f for f in fields(RunConfig)}
        for key, val in file_cfg.items():
            field = run_fields.get(key.replace("-", "_"))
            if field is None:
                raise UsageError(f"unknown config key {key!r}")
            if not (val is None and field.default is None
                    or type(val) is field.type
                    or type(val) is int and field.type is float):
                raise UsageError(f"config key {key!r} must be "
                                 f"{field.type.__name__}, not {val!r}")
            p_run.set_defaults(**{field.name: val})
        args = parser.parse_args(argv)
    return args


def main(argv=None):
    parser, p_run = _build_parser()
    try:
        args = _parse_args(parser, p_run, argv)
        if args.command == "run":
            config = RunConfig(**{key: getattr(args, key)
                                  for key in vars(RunConfig())})
            records = run(config)
            final = records[-1]
            print(f"levels={len(records)} N={final.n_elements} "
                  f"rho={final.rho:.6e}")
            return 0
        fit = fit_rates(*_rate_data(args.csv, args.quantity, args.window))
        print(f"slope={fit.slope:.6f} intercept={fit.intercept:.6f} "
              f"points={fit.n_points}")
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
