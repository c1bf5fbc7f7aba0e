"""P1 finite element machinery.

Stiffness and load assembly, energy evaluation, prolongation between
nested meshes, and the CG solver of the PDAS systems (preconditioned by
:func:`obstacle_afem.multigrid.vcycle`).  Stiffness entries
are exact (piecewise-constant gradients); area integrals of data use the
order-5 triangle rule from :mod:`obstacle_afem.quadrature`.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .quadrature import TRI_BARY, TRI_WEIGHTS, triangle_points

__all__ = [
    "hat_gradients",
    "assemble_stiffness",
    "assemble_load",
    "energy",
    "prolong",
    "energy_norm_diff",
    "solution_gradients",
]

CG_RTOL = 1e-12


def hat_gradients(mesh):
    """Gradients of the three nodal hat functions on each triangle,
    shape (M, 3, 2)."""
    p = mesh.nodes[mesh.triangles]
    grads = np.empty((mesh.num_triangles, 3, 2))
    for i in range(3):
        # edge opposite vertex i, rotated by 90 degrees
        e = p[:, (i + 2) % 3] - p[:, (i + 1) % 3]
        grads[:, i, 0] = -e[:, 1]
        grads[:, i, 1] = e[:, 0]
    grads /= (2.0 * mesh.areas)[:, None, None]
    return grads


def assemble_stiffness(mesh):
    """Sparse symmetric stiffness matrix of the Dirichlet form."""
    grads = hat_gradients(mesh)
    local = np.einsum("mid,mjd,m->mij", grads, grads, mesh.areas)
    tri = mesh.triangles
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    k = sp.coo_matrix((local.ravel(), (rows, cols)),
                      shape=(mesh.num_nodes, mesh.num_nodes))
    return k.tocsr()


def assemble_load(mesh, f):
    """Load vector (f, phi_i) via the 7-point order-5 triangle rule."""
    pts = triangle_points(mesh)
    # one quadrature point at a time: f's temporaries stay of shape (M,)
    fvals = np.empty(pts.shape[:2])
    for q in range(pts.shape[1]):
        fvals[:, q] = f(pts[:, q, 0], pts[:, q, 1])
    if not np.isfinite(fvals).all():
        raise ValueError("load f is not finite at a quadrature point")
    contrib = np.einsum("q,mq,qi,m->mi", TRI_WEIGHTS, fvals, TRI_BARY,
                        mesh.areas)
    b = np.zeros(mesh.num_nodes)
    np.add.at(b, mesh.triangles, contrib)
    return b


def energy(stiffness, load, values):
    """Discrete energy 1/2 V'KV - b'V."""
    return float(0.5 * values @ (stiffness @ values) - load @ values)


def prolong(values, fine):
    """Represent a P1 function exactly on ``fine``, one bisection
    generation after the mesh of ``values``: new nodes are edge
    midpoints, valued as the averages of the parent endpoint values."""
    n_old = len(values)
    if fine.level < 1 or fine.level_nodes[-2] != n_old:
        raise ValueError("values do not live on the mesh refined by fine")
    out = np.empty(fine.num_nodes)
    out[:n_old] = values
    parents = fine.node_parents[n_old:]
    out[n_old:] = 0.5 * (out[parents[:, 0]] + out[parents[:, 1]])
    return out


def energy_norm_diff(stiffness, v, w):
    """Energy norm |||v - w||| via the stiffness quadratic form."""
    d = np.asarray(v, dtype=float) - np.asarray(w, dtype=float)
    return float(np.sqrt(max(0.0, d @ (stiffness @ d))))


def solution_gradients(mesh, values):
    """Constant gradient of a P1 function on each triangle, shape (M, 2)."""
    grads = hat_gradients(mesh)
    return np.einsum("mid,mi->md", grads, values[mesh.triangles])


def cg_solve(matrix, rhs, x0, precond):
    """Conjugate gradients preconditioned by ``precond``, a function of
    the residual, started from ``x0``; returns the solution and the
    number of iterations."""
    steps = []
    x, info = spla.cg(matrix, rhs, x0=x0, rtol=CG_RTOL, maxiter=10000,
                      M=spla.LinearOperator(matrix.shape, matvec=precond),
                      callback=lambda _: steps.append(1))
    if info != 0:
        raise RuntimeError(f"CG failed to converge (info={info})")
    return x, len(steps)
