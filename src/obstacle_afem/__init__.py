"""Adaptive P1 finite elements for 2D elliptic obstacle problems."""

from .adapt import (LoopRecord, RunResult, dorfler_mark, run_adaptive,
                    run_uniform)
from .boundary import BoundaryTrace, apx_indicator, interpolate_boundary
from .estimator import IndicatorSet, assemble_indicators
from .fem import (assemble_load, assemble_stiffness, energy,
                  energy_norm_diff, prolong)
from .mesh import (LShape, Mesh, Square, build_initial_mesh, dump_mesh,
                   refine)
from .problems import (Obstacle, ProblemSpec, example1, example1_exact_energy,
                       example2, load_custom, reference_energy,
                       to_zero_obstacle)
from .vi import (DiscreteSolution, KKTReport, PdasError, check_kkt,
                 solve_obstacle)

__version__ = "0.1.0"

__all__ = [
    "LoopRecord", "RunResult", "dorfler_mark", "run_adaptive",
    "run_uniform",
    "BoundaryTrace", "apx_indicator", "interpolate_boundary",
    "IndicatorSet", "assemble_indicators",
    "assemble_load", "assemble_stiffness", "energy", "energy_norm_diff",
    "prolong",
    "LShape", "Mesh", "Square", "build_initial_mesh", "dump_mesh",
    "refine",
    "Obstacle", "ProblemSpec", "example1", "example1_exact_energy",
    "example2", "load_custom", "reference_energy", "to_zero_obstacle",
    "DiscreteSolution", "KKTReport", "PdasError", "check_kkt",
    "solve_obstacle",
    "__version__",
]
