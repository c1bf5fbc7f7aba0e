"""Discrete obstacle problem with zero obstacle.

Primal-dual active set (PDAS) solver enforcing U >= 0 at interior nodes
and U = g_l at boundary nodes; it exposes the multiplier
lambda = (KU - b) restricted to interior nodes.
"""

from dataclasses import dataclass

import numpy as np

from .fem import cg_solve
from .multigrid import level_prolongations, vcycle

__all__ = [
    "DiscreteSolution",
    "KKTReport",
    "PdasError",
    "solve_obstacle",
    "check_kkt",
]

MAX_PDAS_ITER = 100


class PdasError(RuntimeError):
    """PDAS failed to converge."""


@dataclass
class DiscreteSolution:
    """Nodal solution with its active-set partition.

    ``active`` is a boolean mask over all nodes (True only at interior
    nodes where U touches the obstacle); ``multiplier`` is (KU - b) at
    interior nodes, zero at boundary nodes; ``cg_iterations`` sums the
    CG iterations of all PDAS iterations.
    """

    values: np.ndarray
    active: np.ndarray
    multiplier: np.ndarray
    iterations: int
    cg_iterations: int = 0


@dataclass
class KKTReport:
    feasibility: float          # max(0, -min U) at interior nodes
    active_multiplier: float    # max(0, -min lambda) on the active set
    inactive_residual: float    # max |lambda| on the inactive set

    @property
    def max_violation(self):
        return max(self.feasibility, self.active_multiplier,
                   self.inactive_residual)


def solve_obstacle(mesh, stiffness, load, gl, warm_active=None):
    """Minimize the discrete energy over {U >= 0 in Omega, U = g_l on Gamma}.

    Primal-dual active set iteration with complementarity parameter c = 1:
    given the active set A, solve the linear system with U = 0 on A and
    U = g_l on the boundary (CG preconditioned by a V-cycle on the mesh's
    bisection history truncated to the inactive interior nodes, started
    from the previous iterate), read off the multiplier, and update
    A <- {i interior : lambda_i - U_i > 0} until A is stable.  The
    interior nodes are those where ``gl`` (the nodal vector of
    :func:`obstacle_afem.boundary.interpolate_boundary`) is NaN.

    ``warm_active`` seeds the active set: a boolean mask over the first
    nodes, e.g. the previous level's (refinement appends the new nodes,
    which start inactive); entries at boundary nodes are ignored.
    """
    interior = np.isnan(gl)
    if (gl < -1e-12).any():
        raise ValueError("infeasible boundary data: g_l < 0 at a node")

    n = mesh.num_nodes
    u = np.where(interior, 0.0, gl)
    csr = stiffness.tocsr()
    # load minus the boundary values' share; U = 0 on A adds nothing
    rhs = load - csr @ u

    active = np.zeros(n, dtype=bool)
    if warm_active is not None:
        active[:len(warm_active)] = warm_active
        active &= interior

    prolongations = level_prolongations(mesh)
    cg_iterations = 0
    for iteration in range(1, MAX_PDAS_ITER + 1):
        u[active] = 0.0
        idx = np.nonzero(interior & ~active)[0]
        if idx.size:
            a = csr[idx][:, idx]
            u[idx], steps = cg_solve(a, rhs[idx], u[idx],
                                     vcycle(a, prolongations, idx))
            cg_iterations += steps
        lam = np.zeros(n)
        lam[interior] = (csr @ u - load)[interior]
        new_active = interior & ((lam - u) > 0)
        if np.array_equal(new_active, active):
            return DiscreteSolution(values=u, active=new_active,
                                    multiplier=lam, iterations=iteration,
                                    cg_iterations=cg_iterations)
        active = new_active
    raise PdasError(
        f"PDAS did not converge within {MAX_PDAS_ITER} iterations")


def check_kkt(sol, stiffness, load, gl):
    """Maximal violations of feasibility, multiplier sign, and
    complementarity for a discrete solution; ``gl`` is NaN exactly at
    the interior nodes."""
    interior = np.isnan(gl)
    lam = stiffness @ sol.values - load
    feasibility = max(0.0, float(-sol.values[interior].min(initial=0.0)))
    act = sol.active & interior
    inact = interior & ~sol.active
    active_multiplier = max(0.0, float(-lam[act].min(initial=0.0)))
    inactive_residual = float(np.abs(lam[inact]).max(initial=0.0))
    return KKTReport(feasibility=feasibility,
                     active_multiplier=active_multiplier,
                     inactive_residual=inactive_residual)
