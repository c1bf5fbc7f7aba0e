"""Independent solvers and error norms for the solver tests.

``projected_sor_solve`` reaches the discrete obstacle solution by
projected Gauss-Seidel sweeps, with no active set and no linear solver,
so that the tests can cross-check the PDAS solution of
:func:`obstacle_afem.vi.solve_obstacle`; ``jacobi_cg_solve`` solves one
PDAS system by Jacobi-preconditioned CG, with no mesh hierarchy, to
cross-check the multilevel-preconditioned :func:`obstacle_afem.vi.cg_solve`;
``scipy_cg_solve`` runs SciPy's CG with the same preconditioner and
stopping rule as ``cg_solve``, to check its iterations one for one;
``csc_vcycle`` is the V-cycle set-up that slices whole prolongations,
copies the columns of each truncated one and forms ``P' (A P)`` through
SciPy's CSC copy of ``A P``, to check :func:`obstacle_afem.vi.vcycle`
bit for bit;
``h1_error`` measures a P1 function against a closed-form solution by
quadrature; ``cold_reference_energy`` is the uniform reference loop of
:func:`obstacle_afem.problems.reference_energy` with the new nodes of
each level started inactive.
"""

import numpy as np
import scipy.sparse.linalg as spla

from obstacle_afem.boundary import interpolate_boundary
from obstacle_afem.fem import (assemble_load, assemble_stiffness, energy,
                               solution_gradients)
from obstacle_afem.mesh import build_initial_mesh, refine
from obstacle_afem.problems import to_zero_obstacle
from obstacle_afem.quadrature import TRI_BARY, TRI_WEIGHTS, triangle_points
from obstacle_afem.vi import (BOUNDARY_TOL, CG_RTOL, COARSE_LIMIT,
                              JACOBI_DAMPING, SMOOTHING_STEPS,
                              DiscreteSolution, _smooth, solve_obstacle)


def projected_sor_solve(mesh, stiffness, load, gl, omega=1.5,
                        tol=1e-12, max_sweeps=100000):
    """Projected SOR oracle: Gauss-Seidel sweeps with projection onto
    U >= 0 at interior nodes, iterated until the largest nodal update
    drops below ``tol``."""
    if not 0.0 < omega < 2.0:
        raise ValueError("relaxation parameter must lie in (0, 2)")
    n = mesh.num_nodes
    interior = np.ones(n, dtype=bool)
    interior[mesh.boundary_node_ids()] = False
    if (gl[~interior] < -BOUNDARY_TOL).any():
        raise ValueError("infeasible boundary data: g_l < 0 at a node")

    u = np.where(interior, 0.0, gl)

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
    return DiscreteSolution(values=u, active=active, iterations=sweep)


def jacobi_cg_solve(matrix, rhs, x0=None):
    """Jacobi-preconditioned conjugate gradients."""
    diag = matrix.diagonal()
    precond = spla.LinearOperator(matrix.shape, matvec=lambda r: r / diag)
    x, info = spla.cg(matrix, rhs, x0=x0, rtol=CG_RTOL, M=precond,
                      maxiter=10000)
    if info != 0:
        raise RuntimeError(f"CG failed to converge (info={info})")
    return x


def scipy_cg_solve(matrix, rhs, x0, precond):
    """``scipy.sparse.linalg.cg`` with the arguments and stopping rule of
    :func:`obstacle_afem.vi.cg_solve`; returns the solution and the
    number of iterations."""
    steps = []
    x, info = spla.cg(matrix, rhs, x0=x0, rtol=CG_RTOL, maxiter=10000,
                      M=spla.LinearOperator(matrix.shape, matvec=precond),
                      callback=lambda _: steps.append(1))
    if info != 0:
        raise RuntimeError(f"CG failed to converge (info={info})")
    return x, len(steps)


def csc_vcycle(matrix, prolongations, idx):
    """One symmetric V-cycle, same contract as
    :func:`obstacle_afem.vi.vcycle` but fed the whole prolongations
    between the kept levels (``tests.mesh_oracles.level_prolongations``):
    each sliced to the rows of its system after the products, the
    reached columns picked by a copy, the coarse matrices the CSC
    products ``p.T @ (matrix @ p)``."""
    if len(idx) <= COARSE_LIMIT:
        coarse = np.linalg.pinv(matrix.toarray(), hermitian=True)
        return lambda r: coarse @ r
    scale = JACOBI_DAMPING / matrix.diagonal()
    if not prolongations:
        return lambda r: _smooth(matrix, scale, r, scale * r,
                                 2 * SMOOTHING_STEPS - 1)
    p = prolongations[0][idx]
    rows = np.flatnonzero(p.getnnz(axis=0))
    p = p[:, rows]
    pt = p.T
    coarser = csc_vcycle(pt @ (matrix @ p), prolongations[1:], rows)

    def apply(r):
        x = _smooth(matrix, scale, r, scale * r, SMOOTHING_STEPS - 1)
        x = x + p @ coarser(pt @ (r - matrix @ x))
        return _smooth(matrix, scale, r, x, SMOOTHING_STEPS)

    return apply


def h1_error(mesh, values, exact, exact_grad):
    """Full H1 norm of (exact - P1 function) by order-5 quadrature."""
    x, y = (c.T for c in triangle_points(mesh, slice(None)))
    areas = mesh.areas

    bary = TRI_BARY  # (7, 3)
    uh = np.einsum("qi,mi->mq", bary, values[mesh.triangles])
    du = np.asarray(exact(x, y)) - uh

    gh = solution_gradients(mesh, values)
    gx, gy = exact_grad(x, y)
    dgx = np.asarray(gx) - gh[:, 0][:, None]
    dgy = np.asarray(gy) - gh[:, 1][:, None]

    sq = np.einsum("q,mq,m->", TRI_WEIGHTS, du ** 2 + dgx ** 2 + dgy ** 2,
                   areas)
    return float(np.sqrt(max(0.0, sq)))


def cold_reference_energy(problem, n_target):
    """Energy of the Galerkin solution on the finest uniform mesh with at
    most ``n_target`` elements, each level's PDAS seeded with the coarser
    level's active set on the old nodes and all new nodes inactive."""
    tp = to_zero_obstacle(problem)
    mesh = build_initial_mesh(problem.domain)
    active = None
    while True:
        gl = interpolate_boundary(tp.g, mesh)
        stiffness = assemble_stiffness(mesh)
        load = assemble_load(mesh, tp.f)
        sol = solve_obstacle(mesh, stiffness, load, gl, warm_active=active)
        if mesh.num_triangles * 4 > n_target:
            return energy(stiffness, load, sol.values)
        active = sol.active
        mesh = refine(mesh, np.arange(mesh.num_edges))
