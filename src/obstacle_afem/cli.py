"""Command-line front end: experiment runs, CSV output, rate fits."""

import argparse
import csv
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from .adapt import run_adaptive, run_uniform
from .estimator import dump_indicators
from .mesh import build_initial_mesh, dump_mesh
from .problems import (example1, example2, load_custom, read_json,
                       reference_energy)

__all__ = ["RunConfig", "RateFit", "run", "fit_rates", "main"]

CSV_COLUMNS = {"level": "level", "N": "n_elements", "rho": "rho",
               "rho_tilde": "rho_tilde", "apx": "apx", "J": "energy",
               "eps": "eps", "pdas_iters": "pdas_iters",
               "wall_ms": "wall_ms", "cg_iters": "cg_iters",
               "du_norm": "du_norm"}


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
        ref = _reference(problem, config)

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
        dump_indicators(result.mesh, result.indicators, config.dump_indicators)
    return result.records


def _reference(problem, config):
    """J_ref: the last energy of the run's adaptive sequence continued
    to ``reference_elements``, or in uniform mode ``reference_energy``.
    The reference mesh must be finer than the run's last mesh, so a
    budget below four times that mesh's elements, or in adaptive mode
    (one level at most quadruples the elements) four times the larger of
    ``max_elements`` and the coarse mesh's, is a usage error."""
    k = config.reference_elements
    n = build_initial_mesh(problem.domain).num_triangles
    if config.mode == "adaptive":
        what = (f"the larger of --max-elements ({config.max_elements}) "
                f"and the coarse mesh's {n} elements")
        n = max(n, config.max_elements)
    else:
        level = 0
        while n < config.max_elements and level < config.max_level:
            n, level = 4 * n, level + 1
        what = f"the run's last mesh of {n} elements"
    if k < 4 * n:
        raise UsageError(f"--reference-elements must be at least {4 * n} "
                         f"(four times {what}), not {k}")
    if config.mode == "uniform":
        return reference_energy(problem, n_target=k)
    # 40 levels past the run's cap, so that the budget ends the sequence
    return run_adaptive(problem, config.theta, max_elements=k,
                        max_level=config.max_level + 40).records[-1].energy


def write_csv(records, path):
    """One row per record; None is an empty cell, an all-None column goes."""
    columns = {c: f for c, f in CSV_COLUMNS.items()
               if any(getattr(r, f) is not None for r in records)}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for r in records:
            writer.writerow(getattr(r, f) for f in columns.values())


def fit_rates(n, q):
    """Least-squares slope of log(q) against log(n) over the points with
    finite n > 0 and finite q > 0, of which at least 4 with two distinct
    n are required."""
    n, q = np.asarray(n, dtype=float), np.asarray(q, dtype=float)
    keep = (n > 0) & (q > 0) & np.isfinite(n) & np.isfinite(q)
    n, q = n[keep], q[keep]
    if len(q) < 4 or n.min() == n.max():
        raise ValueError("rate fit needs at least 4 finite positive points "
                         "and two distinct N")
    slope, intercept = np.polyfit(np.log(n), np.log(q), 1)
    return RateFit(slope=float(slope), intercept=float(intercept),
                   n_points=len(q))


def _rate_data(path, quantity, window):
    """``(N, quantity)`` of the last ``window`` levels of a run CSV that
    have a value; ``sqrt_eps`` is the square root of the ``eps`` column,
    0 (a point the fit drops) where that is negative."""
    if window is not None and window < 1:
        raise UsageError(f"--window must be at least 1, not {window}")
    column = "eps" if quantity == "sqrt_eps" else quantity
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if column not in (reader.fieldnames or ()):
            if quantity == "sqrt_eps":
                raise UsageError(f"--quantity sqrt_eps needs the eps column, "
                                 f"which {path} lacks: a run writes it only "
                                 "with an exact or reference energy")
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
    return n, np.sqrt(np.maximum(q, 0.0)) if quantity == "sqrt_eps" else q


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


_RUN_HELP = {"problem": "example1 | example2 | custom:<path>",
             "mode": "adaptive | uniform", "out": "per-level CSV path",
             "config": "JSON config mirroring the flags"}


def _build_parser():
    """The top-level parser; a ``run`` flag per ``RunConfig`` field, in
    the namespace only when given."""
    parser = _Parser(prog="obstacle-afem",
                     description="Adaptive P1 FEM for 2D obstacle problems")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment",
                           argument_default=argparse.SUPPRESS)
    for field in fields(RunConfig):
        p_run.add_argument("--" + field.name.replace("_", "-"),
                           type=field.type, help=_RUN_HELP.get(field.name))
    p_run.add_argument("--config", help=_RUN_HELP["config"])

    p_fit = sub.add_parser("fit-rates", help="log-log rate fit on a CSV")
    p_fit.add_argument("csv")
    p_fit.add_argument("--quantity", default="rho",
                       help="CSV column, or sqrt_eps")
    p_fit.add_argument("--window", type=int, default=None,
                       help="use only the last k levels")
    return parser


def _read_config(path):
    """The ``RunConfig`` fields a JSON config file sets, each under its
    name or with ``_`` written ``-``.  A value has its field's type, or is
    an integer where that is float, or null where the default is."""
    layout = {key: (f.type,) + (int,) * (f.type is float)
              + (type(None),) * (f.default is None)
              for f in fields(RunConfig)
              for key in (f.name, f.name.replace("_", "-"))}
    try:
        cfg = read_json(path, layout, lambda key: key.replace("-", "_"))
    except ValueError as exc:
        raise UsageError(f"bad config file: {exc}")
    return {key.replace("-", "_"): val for key, val in cfg.items()}


def main(argv=None):
    parser = _build_parser()
    try:
        args = vars(parser.parse_args(argv))
        if args.pop("command") == "run":
            # a flag given on the command line wins over the config file
            path = args.pop("config", None)
            settings = _read_config(path) if path else {}
            records = run(RunConfig(**{**settings, **args}))
            final = records[-1]
            print(f"levels={len(records)} N={final.n_elements} "
                  f"rho={final.rho:.6e}")
            return 0
        fit = fit_rates(*_rate_data(args["csv"], args["quantity"],
                                    args["window"]))
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
