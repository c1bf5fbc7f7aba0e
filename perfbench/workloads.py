"""The benchmark's workloads and the correctness check of their results.

Each workload is one full run through the public API, with inputs fixed
by the paper's experiments.  The check rebuilds the final level's
stiffness, load and boundary trace with the public functions, requires
the KKT conditions and finite outputs, and compares the final energy,
estimator and energy error with golden values recorded from the seed
implementation (``golden.json``).
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np

GOLDEN_PATH = Path(__file__).with_name("golden.json")

# Relative tolerances of the golden comparison.  eps is a difference of
# energies, so its tolerance is wider by about |J| / eps.
RTOL = {"J": 1e-8, "rho": 1e-6, "eps": 1e-4}
# Largest admissible KKT violation at the final level.
KKT_TOL = 1e-9


def _e2_adaptive(oa, problem):
    return oa.adapt.run_adaptive(problem, 0.5, max_elements=80000), None


def _e1_adaptive(oa, problem):
    return oa.adapt.run_adaptive(problem, 0.5, max_elements=60000), None


def _e2_uniform(oa, problem):
    j_ref = oa.problems.reference_energy(problem, 800000)
    result = oa.adapt.run_uniform(problem, max_elements=30000,
                                  reference_energy=j_ref)
    return result, j_ref


# name -> (problem factory name in obstacle_afem.problems, run function)
WORKLOADS = {
    "e2-adaptive": ("example2", _e2_adaptive),
    "e1-adaptive": ("example1", _e1_adaptive),
    "e2-uniform": ("example2", _e2_uniform),
}


def load_golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def final_values(name, result, golden):
    """Final energy J, estimator rho and energy error eps of a run.

    eps comes from the run's records where the run has a reference (the
    exact energy of example 1, the uniform reference of e2-uniform).  On
    e2-adaptive it is measured against the recorded energy of the same
    adaptive sequence continued to a much finer mesh.
    """
    last = result.records[-1]
    eps = last.eps
    if eps is None:
        eps = abs(last.energy - golden[name]["eps_reference_energy"])
    return {"J": last.energy, "rho": last.rho, "eps": eps}


def compare_golden(values, golden):
    """Names and relative deviations of the values outside RTOL."""
    failures = []
    for key, rtol in RTOL.items():
        want = golden[key]
        dev = abs(values[key] - want) / abs(want)
        if not dev <= rtol:
            failures.append(f"{key}={values[key]!r} deviates from golden "
                            f"{want!r} by {dev:.3g} (rtol {rtol:g})")
    return failures


def fingerprint(result, marked_counts):
    """Hash of the per-level (N, pdas_iters, marked edges) trajectory."""
    marked = list(marked_counts) + [0]
    rows = [[r.n_elements, r.pdas_iters, marked[i]]
            for i, r in enumerate(result.records)]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def check(oa, name, problem, result, j_ref, golden):
    """Correctness check of one run; returns (failures, observed)."""
    tp = oa.to_zero_obstacle(problem)
    mesh, sol = result.mesh, result.solution
    gl = oa.interpolate_boundary(tp.g, mesh)
    stiffness = oa.assemble_stiffness(mesh)
    load = oa.assemble_load(mesh, tp.f)
    kkt = oa.check_kkt(sol, stiffness, load, gl).max_violation
    values = final_values(name, result, golden)
    failures = []
    numbers = [v for r in result.records
               for v in (r.rho, r.energy, r.eps) if v is not None]
    numbers += list(values.values())
    if j_ref is not None:
        numbers.append(j_ref)
    if not (all(math.isfinite(v) for v in numbers)
            and bool(np.isfinite(sol.values).all())):
        failures.append("non-finite output")
    if not kkt <= KKT_TOL:
        failures.append(f"KKT violation {kkt:.3g} > {KKT_TOL:g}")
    rebuilt = oa.energy(stiffness, load, sol.values)
    if not abs(rebuilt - values["J"]) <= 1e-12 * abs(rebuilt):
        failures.append(f"final energy {values['J']!r} differs from the "
                        f"rebuilt system's {rebuilt!r}")
    failures += compare_golden(values, golden[name])
    return failures, dict(values, kkt=kkt)
