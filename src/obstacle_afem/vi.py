"""Discrete obstacle problem with zero obstacle.

Primal-dual active set (PDAS) solver plus a projected-SOR sweep solver
used as an independent cross-check.  Both enforce U >= 0 at interior
nodes and U = g_l at boundary nodes, and expose the multiplier
lambda = (KU - b) restricted to interior nodes.
"""

from dataclasses import dataclass

import numpy as np

from .fem import cg_solve

__all__ = [
    "DiscreteSolution",
    "KKTReport",
    "PdasError",
    "solve_obstacle",
    "projected_sor_solve",
    "check_kkt",
]

class PdasError(RuntimeError):
    """PDAS failed to converge; ``last`` holds the final iterate."""

    def __init__(self, message, last=None):
        super().__init__(message)
        self.last = last


@dataclass
class DiscreteSolution:
    """Nodal solution with its active-set partition.

    ``active`` is a boolean mask over all nodes (True only at interior
    nodes where U touches the obstacle); ``multiplier`` is (KU - b) at
    interior nodes, zero at boundary nodes.
    """

    values: np.ndarray
    active: np.ndarray
    multiplier: np.ndarray
    iterations: int


@dataclass
class KKTReport:
    feasibility: float          # max(0, -min U) at interior nodes
    active_multiplier: float    # max(0, -min lambda) on the active set
    inactive_residual: float    # max |lambda| on the inactive set

    @property
    def max_violation(self):
        return max(self.feasibility, self.active_multiplier,
                   self.inactive_residual)


def _interior_mask(mesh, gl):
    mask = np.ones(mesh.num_nodes, dtype=bool)
    mask[gl.node_ids] = False
    return mask


def solve_obstacle(mesh, stiffness, load, gl, warm_active=None,
                   max_iter=100):
    """Minimize the discrete energy over {U >= 0 in Omega, U = g_l on Gamma}.

    Primal-dual active set iteration with complementarity parameter c = 1:
    given the active set A, solve the linear system with U = 0 on A and
    U = g_l on the boundary (Jacobi-preconditioned CG, started from the
    previous iterate), read off the multiplier, and update
    A <- {i interior : lambda_i - U_i > 0} until A is stable.

    ``warm_active`` seeds the active set (boolean mask over nodes; entries
    at boundary nodes are ignored).
    """
    interior = _interior_mask(mesh, gl)
    if np.min(gl.values, initial=0.0) < -1e-12:
        raise ValueError("infeasible boundary data: g_l < 0 at a node")

    n = mesh.num_nodes
    values = np.zeros(n)
    values[gl.node_ids] = gl.values

    active = np.zeros(n, dtype=bool)
    if warm_active is not None:
        active = np.asarray(warm_active, dtype=bool) & interior

    csr = stiffness.tocsr()
    last = None
    for iteration in range(1, max_iter + 1):
        free = interior & ~active
        idx = np.nonzero(free)[0]
        u = np.zeros(n)
        u[gl.node_ids] = gl.values
        if idx.size:
            sub = csr[idx][:, idx]
            rhs = load[idx] - csr[idx] @ u
            x0 = values[idx] if last is not None else None
            u[idx] = cg_solve(sub, rhs, x0=x0)
        lam = np.zeros(n)
        lam[interior] = (csr @ u - load)[interior]
        new_active = interior & ((lam - u) > 0)
        values = u
        last = DiscreteSolution(values=u, active=new_active,
                               multiplier=lam, iterations=iteration)
        if np.array_equal(new_active, active):
            return last
        active = new_active
    raise PdasError(f"PDAS did not converge within {max_iter} iterations",
                    last=last)


def projected_sor_solve(mesh, stiffness, load, gl, omega=1.5,
                        tol=1e-12, max_sweeps=100000):
    """Projected SOR oracle: Gauss-Seidel sweeps with projection onto
    U >= 0 at interior nodes, iterated until the largest nodal update
    drops below ``tol``."""
    if not 0.0 < omega < 2.0:
        raise ValueError("relaxation parameter must lie in (0, 2)")
    interior = _interior_mask(mesh, gl)
    if np.min(gl.values, initial=0.0) < -1e-12:
        raise ValueError("infeasible boundary data: g_l < 0 at a node")

    n = mesh.num_nodes
    u = np.zeros(n)
    u[gl.node_ids] = gl.values

    csr = stiffness.tocsr()
    idx = np.nonzero(interior)[0]
    rows = []
    for i in idx:
        cols = csr.indices[csr.indptr[i]:csr.indptr[i + 1]]
        vals = csr.data[csr.indptr[i]:csr.indptr[i + 1]]
        diag = vals[cols == i][0]
        off = cols != i
        rows.append((int(i), cols[off], vals[off], float(diag)))

    for sweep in range(1, max_sweeps + 1):
        delta = 0.0
        for i, cols, vals, diag in rows:
            gs = (load[i] - vals @ u[cols]) / diag
            new = max(0.0, (1.0 - omega) * u[i] + omega * gs)
            delta = max(delta, abs(new - u[i]))
            u[i] = new
        if delta < tol:
            break
    else:
        raise RuntimeError(
            f"projected SOR did not converge within {max_sweeps} sweeps")

    lam = np.zeros(n)
    lam[interior] = (csr @ u - load)[interior]
    active = interior & (u <= tol) & (lam > 0)
    return DiscreteSolution(values=u, active=active, multiplier=lam,
                            iterations=sweep)


def check_kkt(sol, stiffness, load, gl, tol=1e-10):
    """Maximal violations of feasibility, multiplier sign, and
    complementarity for a discrete solution."""
    mesh = gl.mesh
    interior = _interior_mask(mesh, gl)
    lam = np.zeros(mesh.num_nodes)
    lam[interior] = (stiffness @ sol.values - load)[interior]

    u_int = sol.values[interior]
    feasibility = max(0.0, float(-u_int.min(initial=0.0)))
    act = sol.active & interior
    inact = interior & ~sol.active
    active_multiplier = max(0.0, float(-lam[act].min(initial=0.0)))
    inactive_residual = float(np.abs(lam[inact]).max(initial=0.0))
    return KKTReport(feasibility=feasibility,
                     active_multiplier=active_multiplier,
                     inactive_residual=inactive_residual)
