"""Contraction of the weighted quasi-error, the paper's main theorem.

Along the adaptive loop the quasi-error
Delta_l = (J(U_l) - J(u)) + gamma * rho_l^2 is followed level by level.
The theorem states Delta_{l+1} <= kappa Delta_l with kappa < 1 for a
suitable gamma > 0.  On example 1 the exact energy J(u) is known, and
the energy part is positive on every level although the discrete spaces
are not nested (inhomogeneous Dirichlet data).  On example 2 J(u) is
replaced by an adaptive reference energy; there g - chi = 0, so the
discrete sets are nested and J(U_l) cannot increase.

The "vanishing energy contributions" of the theorem come from g_l
changing between levels.  On a unit square with oscillating Dirichlet
data J(U_l) does increase, and each increase is checked against the
Dirichlet oscillation apx_l^2 of the coarser level.  There Delta_l with
gamma = 1 still contracts from level 5 on, measured against the energy
of a much finer adaptive run.
"""

import numpy as np
import pytest

from obstacle_afem import (Obstacle, ProblemSpec, Square,
                           example1, example2, run_adaptive)

GAMMAS = (0.01, 0.1, 1.0)

# Final energy of run_adaptive(example2(), 0.5, max_elements=500000),
# level 22, N = 632764; recorded as "eps_reference_energy" in
# perfbench/golden.json.
EXAMPLE2_REFERENCE_ENERGY = -0.6979217322257841

# C in J(U_{l+1}) - J(U_l) <= C apx_l^2, fixed before the test was
# written; the largest measured ratios are 1.14 / 1.18 / 1.84 at
# theta = 0.3 / 0.5 / 0.7 (against apx_{l+1}^2 they reach 12.2).
APX_RISE_BOUND = 3.0


# Final energy of run_adaptive(oscillating_dirichlet_problem(), 0.5,
# max_elements=900000): level 23, N = 975910, rho = 4.58e-2.  The same
# run's level 21 (N = 344691) differs by 1.0e-5 and moves no Delta ratio
# below by more than 4e-5.  KAPPA and L0 were fixed before the test was
# run; the largest measured ratios are 0.899 / 0.648 / 0.513 at
# theta = 0.3 / 0.5 / 0.7, with Delta_l >= 0.07 from level L0 on.
OSCILLATING_REFERENCE_ENERGY = 12.517499499280538
OSCILLATING_KAPPA = 0.95
OSCILLATING_L0 = 5


def energy_gaps_contract(records, reference):
    """J(U_l) - reference per level, after asserting that it is positive
    and that Delta_l contracts for some gamma in ``GAMMAS``."""
    assert len(records) > 5
    gap = np.array([r.energy for r in records]) - reference
    assert (gap > 0).all(), f"min J(U_l) - J(u) = {gap.min():.3e}"
    rho2 = np.array([r.rho for r in records]) ** 2
    kappa = {}
    for gamma in GAMMAS:
        delta = gap + gamma * rho2
        kappa[gamma] = float(np.max(delta[1:] / delta[:-1]))
    assert min(kappa.values()) < 1, f"max Delta ratio per gamma: {kappa}"
    return gap


@pytest.fixture(scope="module")
def problem():
    return example1()


@pytest.mark.parametrize("theta", [0.3, 0.5, 0.7])
def test_quasi_error_contracts(problem, theta):
    records = run_adaptive(problem, theta, max_elements=20000).records
    energy_gaps_contract(records, problem.exact_energy)


@pytest.mark.parametrize("theta", [0.3, 0.5, 0.7])
def test_quasi_error_contracts_example2(theta):
    records = run_adaptive(example2(), theta, max_elements=10000).records
    gap = energy_gaps_contract(records, EXAMPLE2_REFERENCE_ENERGY)
    assert (np.diff(gap) <= 0).all()


def oscillating_dirichlet_problem():
    """Unit square, f = -8, g = 1.2 + sin(13x) cos(11y), chi = 0.1 sin 4x."""
    return ProblemSpec(
        name="oscillating-dirichlet",
        domain=Square(0.0, 0.0, 1.0, 1.0),
        g=lambda x, y: 1.2 + np.sin(13 * x) * np.cos(11 * y),
        f=lambda x, y: np.full_like(x, -8.0),
        chi=Obstacle(value=lambda x, y: 0.1 * np.sin(4 * x) + 0 * y,
                     laplacian=lambda x, y: -1.6 * np.sin(4 * x) + 0 * y),
    )


@pytest.fixture(scope="module", params=[0.3, 0.5, 0.7])
def oscillating_records(request):
    """The records of one adaptive run per theta, shared by the tests
    below."""
    return run_adaptive(oscillating_dirichlet_problem(), request.param,
                        max_elements=15000).records


def test_energy_increase_is_bounded_by_apx(oscillating_records):
    records = oscillating_records
    rise = np.diff([r.energy for r in records])
    apx2 = np.array([r.apx for r in records[:-1]]) ** 2
    # the discrete sets are not nested: J(U_l) rises on several levels
    assert (rise > 0).sum() >= 5
    ratio = rise / apx2
    assert (ratio <= APX_RISE_BOUND).all(), f"max ratio {ratio.max():.3f}"


def test_quasi_error_contracts_without_nested_sets(oscillating_records):
    # Delta_l = (J(U_l) - J_ref) + gamma rho_l^2 with gamma = GAMMAS[-1]
    energy = np.array([r.energy for r in oscillating_records])
    rho = np.array([r.rho for r in oscillating_records])
    delta = energy - OSCILLATING_REFERENCE_ENERGY + GAMMAS[-1] * rho ** 2
    delta = delta[OSCILLATING_L0:]
    assert len(delta) > 3 and (delta > 0).all()
    ratio = delta[1:] / delta[:-1]
    assert (ratio <= OSCILLATING_KAPPA).all(), \
        f"max Delta ratio {ratio.max():.3f}"
