"""Independent solvers and error norms for the solver tests.

``projected_sor_solve`` reaches the discrete obstacle solution by
projected Gauss-Seidel sweeps, with no active set and no linear solver,
so that the tests can cross-check the PDAS solution of
:func:`obstacle_afem.vi.solve_obstacle`; ``jacobi_cg_solve`` solves one
PDAS system by Jacobi-preconditioned CG, with no mesh hierarchy, to
cross-check the multilevel-preconditioned :func:`obstacle_afem.fem.cg_solve`;
``h1_error`` measures a P1 function against a closed-form solution by
quadrature.
"""

import numpy as np
import scipy.sparse.linalg as spla

from obstacle_afem.fem import CG_RTOL, solution_gradients
from obstacle_afem.quadrature import TRI_BARY, TRI_WEIGHTS, triangle_points
from obstacle_afem.vi import DiscreteSolution


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
    if (gl[~interior] < -1e-12).any():
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
    return DiscreteSolution(values=u, active=active, multiplier=lam,
                            iterations=sweep)


def jacobi_cg_solve(matrix, rhs, x0=None):
    """Jacobi-preconditioned conjugate gradients."""
    diag = matrix.diagonal()
    precond = spla.LinearOperator(matrix.shape, matvec=lambda r: r / diag)
    x, info = spla.cg(matrix, rhs, x0=x0, rtol=CG_RTOL, M=precond,
                      maxiter=10000)
    if info != 0:
        raise RuntimeError(f"CG failed to converge (info={info})")
    return x


def h1_error(mesh, values, exact, exact_grad):
    """Full H1 norm of (exact - P1 function) by order-5 quadrature."""
    pts = triangle_points(mesh)
    x, y = pts[..., 0], pts[..., 1]
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
