"""Contraction of the weighted quasi-error, the paper's main theorem.

On example 1 the exact energy J(u) is known, so the quasi-error
Delta_l = (J(U_l) - J(u)) + gamma * rho_l^2 of the adaptive loop can be
followed level by level.  The theorem states Delta_{l+1} <= kappa Delta_l
with kappa < 1 for a suitable gamma > 0; the energy part is positive on
every level here, although the discrete spaces are not nested
(inhomogeneous Dirichlet data).
"""

import numpy as np
import pytest

from obstacle_afem import example1, run_adaptive

GAMMAS = (0.01, 0.1, 1.0)


@pytest.fixture(scope="module")
def problem():
    return example1()


@pytest.mark.parametrize("theta", [0.3, 0.5, 0.7])
def test_quasi_error_contracts(problem, theta):
    records = run_adaptive(problem, theta, max_elements=20000).records
    assert len(records) > 5
    gap = np.array([r.energy for r in records]) - problem.exact_energy
    assert (gap > 0).all(), f"min J(U_l) - J(u) = {gap.min():.3e}"
    rho2 = np.array([r.rho for r in records]) ** 2
    kappa = {}
    for gamma in GAMMAS:
        delta = gap + gamma * rho2
        kappa[gamma] = float(np.max(delta[1:] / delta[:-1]))
    assert min(kappa.values()) < 1, f"max Delta ratio per gamma: {kappa}"
