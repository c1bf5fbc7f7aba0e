"""Discrete obstacle problem with zero obstacle: the SOLVE step.

Primal-dual active set (PDAS) solver enforcing U >= 0 at interior nodes
and U = g_l at boundary nodes, with the multiplier lambda = KU - b at the
interior nodes.  Each PDAS system, on the inactive interior nodes, is
solved by CG preconditioned by one symmetric V-cycle of damped Jacobi
sweeps, loosely until the active set repeats.

Newest vertex bisection nests the P1 spaces of its meshes, so the exact
prolongations between the levels of a mesh's history follow from
``Mesh.node_parents`` (:func:`obstacle_afem.fem.generation`); the
Dirichlet data make the discrete obstacle sets non-nested only through
the boundary values, which the PDAS systems do not contain.  The
hierarchy is truncated to a system's nodes as in Kornhuber's (1994)
truncated monotone multilevel method: the prolongations keep only those
rows, coarse nodes whose truncated hat function vanishes are dropped,
and the coarse matrices are the Galerkin products ``P' A P``.  Each
set-up builds its prolongations for the rows of its system only, so none
is held through the solve; a system and its V-cycle live until the next
system is built, for the confirming solve.  Each level of the cycle is a
closure over its matrix, Jacobi scale and prolongation; the cycle must
stay symmetric positive definite, as PCG needs (a test checks it).
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fem import generation

__all__ = [
    "DiscreteSolution",
    "KKTReport",
    "PdasError",
    "solve_obstacle",
    "check_kkt",
]

MAX_PDAS_ITER = 100
# Largest negative boundary data g - chi (and g_l) accepted on Gamma.
BOUNDARY_TOL = 1e-10
CG_RTOL = 1e-12
PDAS_RTOL = 1e-7      # CG tolerance of the PDAS systems until A repeats
SMOOTHING_STEPS = 2   # Jacobi sweeps before and after each coarse correction
JACOBI_DAMPING = 0.7
COARSE_LIMIT = 100    # largest coarsest level, solved densely


class PdasError(RuntimeError):
    """PDAS failed to converge, or its active sets cycled."""


@dataclass
class DiscreteSolution:
    """Nodal solution with its active-set partition.

    ``active`` is a boolean mask over all nodes (True only at interior
    nodes where U touches the obstacle); ``cg_iterations`` sums the CG
    iterations of all PDAS iterations.
    """

    values: np.ndarray
    active: np.ndarray
    iterations: int
    cg_iterations: int = 0


@dataclass
class KKTReport:
    feasibility: float          # max(0, -min U) at interior nodes
    active_multiplier: float    # max(0, -min lambda) on the active set
    inactive_residual: float    # max |lambda| on the inactive set
    boundary_residual: float    # max |U - g_l| at the boundary nodes

    @property
    def max_violation(self):
        return max(self.feasibility, self.active_multiplier,
                   self.inactive_residual, self.boundary_residual)


def solve_obstacle(mesh, stiffness, load, gl, warm_active=None):
    """Minimize the discrete energy over {U >= 0 in Omega, U = g_l on Gamma}.

    Primal-dual active set iteration with complementarity parameter c = 1:
    given the active set A, solve the linear system with U = 0 on A and
    U = g_l on the boundary by CG from the previous iterate, read off the
    multiplier, and update A <- {i interior : lambda_i - U_i > 0} until A
    repeats up to flips with |lambda_i - U_i| <= rtol ||b_I||, so that a
    degenerate node with lambda_i = U_i = 0 cannot flip forever.  The steps
    need only the sign of lambda - U, so CG stops at rtol = ``PDAS_RTOL``
    until A repeats; one solve to ``CG_RTOL`` on the same system and
    V-cycle then confirms A, or overturns it and PDAS goes on with tight
    solves only (rtol is ``CG_RTOL`` too when no node is inactive).  An
    active set that recurs within one phase raises.  The interior nodes
    are those where ``gl`` (the nodal vector of
    :func:`obstacle_afem.boundary.interpolate_boundary`) is NaN.

    ``warm_active`` seeds the active set: a 1-D boolean mask over the
    first nodes, e.g. the previous level's (refinement appends the new
    nodes, which then start inactive), or over all of them; entries at
    boundary nodes are ignored.  Anything else raises ValueError.
    """
    interior = np.isnan(gl)
    if (gl < -BOUNDARY_TOL).any():
        raise ValueError("infeasible boundary data: g_l < 0 at a node")

    n = mesh.num_nodes
    u = np.where(interior, 0.0, gl)
    csr = stiffness.tocsr()
    # load minus the boundary values' share; U = 0 on A adds nothing
    rhs = load - csr @ u

    active = np.zeros(n, dtype=bool)
    if warm_active is not None:
        if not (np.asarray(warm_active).dtype == bool
                and np.ndim(warm_active) == 1 and len(warm_active) <= n):
            raise ValueError("warm_active is not a boolean mask over at "
                             f"most the mesh's {n} nodes")
        active[:len(warm_active)] = warm_active
        active &= interior

    with np.errstate(over="ignore"):  # on overflow every flip decides
        norm_b = np.nan_to_num(np.linalg.norm(rhs[interior]), posinf=0.0)

    cg_iterations = 0
    rtol = PDAS_RTOL
    # the iteration that produced each active set so far (0: the seed)
    seen = {np.packbits(active).tobytes(): 0}
    for iteration in range(1, MAX_PDAS_ITER + 1):
        u[active] = 0.0
        idx = np.nonzero(interior & ~active)[0]
        if idx.size:
            # the V-cycle set-up runs after the last system and V-cycle
            # are freed, before CG's vectors
            a = csr[idx][:, idx]
            precond = vcycle(a, mesh, mesh.level, idx)
            u[idx], steps = cg_solve(a, rhs[idx], u[idx], precond, rtol)
            cg_iterations += steps
        tight = rtol == CG_RTOL or not idx.size
        tol = (CG_RTOL if tight else rtol) * norm_b
        new_active, repeats = _update(csr, load, u, interior, active, tol)
        if repeats and not tight:
            u[idx], steps = cg_solve(a, rhs[idx], u[idx], precond)
            cg_iterations += steps
            rtol, seen, tol = CG_RTOL, {}, CG_RTOL * norm_b
            new_active, repeats = _update(csr, load, u, interior, active, tol)
        a = precond = None
        if repeats:
            return DiscreteSolution(values=u, active=active,
                                    iterations=iteration,
                                    cg_iterations=cg_iterations)
        key = np.packbits(new_active).tobytes()
        if key in seen:
            raise PdasError(
                f"PDAS cycles with length {iteration - seen[key]}: the "
                f"active set of iteration {iteration} is that of iteration "
                f"{seen[key]}")
        seen[key] = iteration
        active = new_active
    raise PdasError(
        f"PDAS did not converge within {MAX_PDAS_ITER} iterations")


def _update(csr, load, u, interior, active, tol):
    """The interior nodes with lambda - U > 0, lambda = KU - b, and
    whether they repeat ``active`` (a set of interior nodes) up to flips
    with |lambda - U| <= tol; lambda - U is formed in place."""
    d = csr @ u
    d -= load
    d -= u
    new_active = interior & (d > 0)
    flips = (new_active != active) & ((d > tol) | (d < -tol))
    return new_active, not flips.any()


def check_kkt(sol, stiffness, load, gl):
    """Maximal violations of feasibility, multiplier sign,
    complementarity and the boundary condition U = g_l for a discrete
    solution; ``gl`` is NaN exactly at the interior nodes."""
    interior = np.isnan(gl)
    lam = stiffness @ sol.values - load
    feasibility = max(0.0, float(-sol.values[interior].min(initial=0.0)))
    act = sol.active & interior
    inact = interior & ~sol.active
    active_multiplier = max(0.0, float(-lam[act].min(initial=0.0)))
    inactive_residual = float(np.abs(lam[inact]).max(initial=0.0))
    boundary_residual = float(
        np.abs(sol.values - gl)[~interior].max(initial=0.0))
    return KKTReport(feasibility=feasibility,
                     active_multiplier=active_multiplier,
                     inactive_residual=inactive_residual,
                     boundary_residual=boundary_residual)


def cg_solve(matrix, rhs, x0, precond, rtol=CG_RTOL):
    """Conjugate gradients preconditioned by ``precond``, a function of
    the residual, started from ``x0``; returns the solution and the
    number of iterations.  Stops once ||r|| < rtol ||rhs||; raises if
    ||rhs|| is not finite and after 10,000 iterations."""
    x = np.array(x0, dtype=float)
    with np.errstate(over="ignore"):
        norm_b = np.linalg.norm(rhs)
    if not np.isfinite(norm_b):
        raise ValueError("CG right-hand side norm is not finite")
    if norm_b == 0.0:
        return np.zeros_like(x), 0
    tol = rtol * norm_b
    r = rhs - matrix @ x
    p = rho_prev = None
    for steps in range(10000):
        if np.linalg.norm(r) < tol:
            return x, steps
        z = precond(r)
        rho = np.dot(r, z)
        p = z.copy() if p is None else z + (rho / rho_prev) * p
        q = matrix @ p
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
        del z, q  # not alive through the next V-cycle's temporaries
    raise RuntimeError("CG failed to converge (info=10000)")


def truncated_prolongation(mesh, level, idx):
    """The rows ``idx`` (sorted) of the prolongation to ``level`` from the
    next kept level below it, and that level: the product of the
    generations in between, the first one built for the rows ``idx`` only
    (each row of a product comes from that row alone) and its columns
    sorted (the V-cycle sums in index order).  Going down, a level is
    kept when it has at most half the nodes of ``level``; level 0 always
    is."""
    p, kept = generation(mesh, level, idx), level - 1
    while kept > 0 and 2 * mesh.level_nodes[kept] > mesh.level_nodes[level]:
        p = p @ generation(mesh, kept)
        kept -= 1
    p.sort_indices()
    return p, kept


def vcycle(matrix, mesh, level, idx):
    """One symmetric V-cycle for ``matrix``, the system on the nodes
    ``idx`` of the mesh's history level ``level``, as a function of the
    residual.  The first level with at most ``COARSE_LIMIT`` unknowns is
    the coarsest and is solved by a pseudo-inverse (truncated Galerkin
    matrices can be singular); a coarsest level 0 with more unknowns is
    only smoothed.  Each level is a closure that calls the cycle of the
    next kept level."""
    if len(idx) <= COARSE_LIMIT:
        coarse = np.linalg.pinv(matrix.toarray(), hermitian=True)
        return lambda r: coarse @ r
    scale = JACOBI_DAMPING / matrix.diagonal()
    if level == 0:
        return lambda r: _smooth(matrix, scale, r, scale * r,
                                 2 * SMOOTHING_STEPS - 1)
    p, kept = truncated_prolongation(mesh, level, idx)
    reached = p.getnnz(axis=0) > 0
    rows = np.flatnonzero(reached)
    # renumber the reached coarse nodes in order: each row keeps its
    # data and order, and p's columns are not copied
    number = np.cumsum(reached, dtype=p.indices.dtype) - 1
    p = sp.csr_matrix((p.data, number[p.indices], p.indptr),
                      shape=(len(idx), len(rows)))
    del reached, number
    pt = p.T  # kept: a transpose per cycle costs more than the matvec
    # P'(AP) from a CSR copy of P', made after AP (pt @ AP would copy
    # the larger AP to CSC); sorted columns keep every sum of the cycle
    # in index order
    ap = matrix @ p
    coarse = pt.tocsr() @ ap
    del ap
    coarse.sort_indices()
    coarser = vcycle(coarse, mesh, kept, rows)

    def apply(r):
        x = _smooth(matrix, scale, r, scale * r, SMOOTHING_STEPS - 1)
        x = x + p @ coarser(pt @ (r - matrix @ x))
        return _smooth(matrix, scale, r, x, SMOOTHING_STEPS)

    return apply


def _smooth(a, scale, r, x, steps):
    """``steps`` damped Jacobi sweeps on ``a x = r`` from ``x``."""
    for _ in range(steps):
        x += scale * (r - a @ x)
    return x
