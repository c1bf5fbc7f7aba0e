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

__all__ = ["level_prolongations", "vcycle"]

SMOOTHING_STEPS = 2   # Jacobi sweeps before and after each coarse correction
JACOBI_DAMPING = 0.7
COARSE_LIMIT = 200    # largest coarsest level, solved densely


def level_prolongations(mesh):
    """Prolongations between the kept levels of the mesh's history,
    finest first; each maps nodal values on one kept level to the next
    finer one.  Going down from the finest level, a level is kept when it
    has at most half the nodes of the last kept one; level 0 always is."""
    counts = mesh.level_nodes
    kept = [len(counts) - 1]
    for level in range(len(counts) - 2, -1, -1):
        if level == 0 or 2 * counts[level] <= counts[kept[-1]]:
            kept.append(level)
    prolongations = []
    for fine, coarse in zip(kept, kept[1:]):
        p = sp.identity(counts[coarse], format="csr")
        for level in range(coarse + 1, fine + 1):
            parents = mesh.node_parents[counts[level - 1]:counts[level]]
            p = sp.vstack([p, 0.5 * (p[parents[:, 0]] + p[parents[:, 1]])],
                          format="csr")
        prolongations.append(p)
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
