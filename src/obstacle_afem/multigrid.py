"""Multilevel preconditioner on the bisection history of a mesh.

Newest vertex bisection nests the P1 spaces of the meshes it produces,
so the exact prolongation from an earlier mesh of the history to a later
one follows from ``Mesh.node_parents``: old nodes keep their values, a
new node takes the mean of its parent edge's endpoints.  The inhomogeneous
Dirichlet data make the discrete obstacle sets non-nested only through
the boundary values, which the PDAS systems do not contain.

Each PDAS system lives on the inactive interior nodes.  Its hierarchy is
truncated there, as in truncated monotone multigrid (Kornhuber 1994): the
prolongations keep only those rows, coarse nodes whose truncated hat
function vanishes are dropped, and the coarse matrices are the Galerkin
products ``P' A P``.  One symmetric V-cycle of damped Jacobi sweeps then
preconditions CG.
"""

import numpy as np
import scipy.sparse as sp

__all__ = ["generation", "level_prolongations", "vcycle"]

SMOOTHING_STEPS = 2   # Jacobi sweeps before and after each coarse correction
JACOBI_DAMPING = 0.7
COARSE_LIMIT = 200    # largest coarsest level, solved densely


def generation(mesh, level):
    """Prolongation of bisection generation ``level``, CSR from the nodes
    of level - 1 to those of level: old node i keeps its value, a new node
    takes half of each endpoint of its (min, max) parent edge, in order.
    Its index arrays are int32 like ``node_parents``, so SciPy keeps them."""
    old, new = mesh.level_nodes[level - 1:level + 1]
    keep = np.arange(old, dtype=np.int32)
    data = np.r_[np.ones(old), np.full(2 * (new - old), 0.5)]
    indices = np.r_[keep, mesh.node_parents[old:new].ravel()]
    indptr = np.r_[keep, np.arange(old, 2 * new - old + 1, 2, dtype=np.int32)]
    return sp.csr_matrix((data, indices, indptr), shape=(new, old))


def level_prolongations(mesh):
    """Prolongations between the kept levels of the mesh's history, finest
    first: products of the generations in between, columns sorted (the
    V-cycle sums in index order).  Going down, a level is kept when it has
    at most half the nodes of the last kept one; level 0 always is."""
    prolongations, p = [], None
    for level in range(mesh.level, 0, -1):
        g = generation(mesh, level)
        p = g if p is None else p @ g
        if level == 1 or 2 * mesh.level_nodes[level - 1] <= p.shape[0]:
            prolongations.append(p.sorted_indices())
            p = None
    return prolongations


def vcycle(matrix, prolongations, idx):
    """One symmetric V-cycle for ``matrix``, the system on the fine nodes
    ``idx``, as a function of the residual.  The first level with at most
    ``COARSE_LIMIT`` unknowns is the coarsest and is solved by a
    pseudo-inverse (truncated Galerkin matrices can be singular); a
    coarsest level 0 with more unknowns is only smoothed.  Each level is
    a closure that calls the cycle of the next coarser level."""
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
    pt = p.T  # kept: a transpose per cycle costs more than the matvec
    coarser = vcycle(pt @ (matrix @ p), prolongations[1:], rows)

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
