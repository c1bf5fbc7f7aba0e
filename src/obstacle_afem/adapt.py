"""Doerfler marking and the Solve-Estimate-Mark-Refine loop."""

import time
from dataclasses import dataclass

import numpy as np

from .boundary import interpolate_boundary
from .estimator import assemble_indicators
from .fem import (assemble_load, assemble_stiffness, energy,
                  energy_norm_diff, prolong)
from .mesh import build_initial_mesh, refine
from .problems import to_zero_obstacle
from .vi import solve_obstacle

__all__ = [
    "LoopRecord",
    "RunResult",
    "dorfler_mark",
    "run_adaptive",
    "run_uniform",
]


@dataclass
class LoopRecord:
    """Per-level convergence history entry."""

    level: int
    n_elements: int
    rho: float
    rho_tilde: float
    apx: float
    energy: float
    eps: float = None           # |J(U_l) - J_ref| when a reference is known
    du_norm: float = None       # |||U_l - U_{l-1}||| on the current mesh
    pdas_iters: int = 0
    wall_ms: float = 0.0        # whole level, marking and refinement too
    cg_iters: int = 0           # CG iterations of all PDAS iterations


@dataclass
class RunResult:
    records: list
    mesh: object
    solution: object
    indicators: object


def dorfler_mark(contributions, theta):
    """Minimal edge set carrying at least a theta-fraction of rho^2.

    Edges are sorted by ``contributions``, their shares of rho^2,
    descending (ties by edge id ascending); the shortest prefix reaching
    the threshold is marked.  Returns the marked ids in ascending order.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    contrib = np.asarray(contributions, dtype=float)
    if not np.isfinite(contrib).all():
        raise ValueError("estimator contributions are not finite")
    total = float(contrib.sum())
    if total <= 0.0:
        raise ValueError("total estimator vanishes; nothing to mark")
    order = np.argsort(-contrib, kind="stable")
    cum = np.cumsum(contrib[order])
    threshold = theta * total * (1.0 - 1e-12)
    k = int(np.searchsorted(cum, threshold))
    return np.sort(order[:k + 1])


def _run(problem, mark_fn, max_elements, max_level, reference_energy=None):
    tp = to_zero_obstacle(problem)
    ref = reference_energy
    if ref is None:
        ref = problem.exact_energy

    mesh = build_initial_mesh(problem.domain)
    prev = None  # the previous level's (solution values, active mask)
    records = []
    try:
        while True:
            t0 = time.perf_counter()
            gl = interpolate_boundary(tp.g, mesh)
            # the load first, so that no stiffness matrix is alive in it
            load = assemble_load(mesh, tp.f)
            stiffness = assemble_stiffness(mesh)
            sol = solve_obstacle(mesh, stiffness, load, gl,
                                 warm_active=prev[1] if prev else None)
            value = energy(stiffness, load, sol.values)
            du = None
            if prev is not None:
                du = energy_norm_diff(stiffness, sol.values,
                                      prolong(prev[0], mesh))
            del stiffness, load
            indicators = assemble_indicators(mesh, sol.values, tp.f, tp.g)
            for name, v in (("estimator", indicators.rho2), ("energy", value)):
                if not np.isfinite(v):
                    raise ValueError(f"level {mesh.level}: {name} "
                                     "is not finite")
            records.append(LoopRecord(
                level=mesh.level,
                n_elements=mesh.num_triangles,
                rho=indicators.rho,
                rho_tilde=indicators.rho_tilde,
                apx=float(np.sqrt(indicators.apx2_total)),
                energy=value,
                eps=None if ref is None else abs(value - ref),
                du_norm=du,
                pdas_iters=sol.iterations,
                wall_ms=(time.perf_counter() - t0) * 1e3,
                cg_iters=sol.cg_iterations,
            ))
            if (indicators.rho2 <= 0.0
                    or mesh.num_triangles >= max_elements
                    or mesh.level >= max_level):
                return RunResult(records, mesh, sol, indicators)
            marked = mark_fn(indicators.contributions)
            del indicators  # three edge arrays, freed before the next solve
            prev = (sol.values, sol.active)
            mesh = refine(mesh, marked)
            records[-1].wall_ms = (time.perf_counter() - t0) * 1e3
    except Exception as exc:
        exc.partial_records = records
        raise


def run_adaptive(problem, theta, max_elements=50000, max_level=40,
                 reference_energy=None):
    """Algorithm loop with Doerfler marking; one record per level.

    Terminates when the estimator vanishes, the element budget is
    reached, or level ``max_level`` was computed (levels count from 0,
    so that is ``max_level + 1`` levels).  Solver failures
    propagate with the records collected so far attached as
    ``partial_records``.
    """
    return _run(problem, lambda c: dorfler_mark(c, theta),
                max_elements, max_level, reference_energy)


def run_uniform(problem, max_elements=50000, max_level=40,
                reference_energy=None):
    """Same loop with every edge marked (uniform refinement)."""
    return _run(problem, lambda c: np.arange(c.size),
                max_elements, max_level, reference_energy)
