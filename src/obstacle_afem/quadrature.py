"""Quadrature rules shared across assembly and estimator code, and the
row blocks of every blocked kernel: the stiffness, the load, the solution
gradients and both estimator passes work on ``blocks(n)`` of about
``BLOCK`` rows, so that their temporaries stay of block size."""

import numpy as np

__all__ = ["TRI_BARY", "TRI_WEIGHTS", "blocks", "f_at_points",
           "triangle_points"]

# Rows per block of the blocked kernels; near-equal blocks, because a
# one-row product can round unlike a row of a longer one.
BLOCK = 2 ** 13

# 7-point order-5 rule on the triangle (barycentric coordinates, weights
# summing to 1).
_a1 = (6.0 - np.sqrt(15.0)) / 21.0
_a2 = (6.0 + np.sqrt(15.0)) / 21.0
_w1 = (155.0 - np.sqrt(15.0)) / 1200.0
_w2 = (155.0 + np.sqrt(15.0)) / 1200.0

TRI_BARY = np.array([
    [1 / 3, 1 / 3, 1 / 3],
    [_a1, _a1, 1 - 2 * _a1],
    [_a1, 1 - 2 * _a1, _a1],
    [1 - 2 * _a1, _a1, _a1],
    [_a2, _a2, 1 - 2 * _a2],
    [_a2, 1 - 2 * _a2, _a2],
    [1 - 2 * _a2, _a2, _a2],
])
TRI_WEIGHTS = np.array([9 / 40, _w1, _w1, _w1, _w2, _w2, _w2])


def blocks(n):
    """``n // BLOCK`` (at least one) near-equal slices of range(n)."""
    k = max(1, n // BLOCK)
    return [slice(n * i // k, n * (i + 1) // k) for i in range(k)]


def triangle_points(mesh, rows):
    """Quadrature points of the triangles ``rows`` as the pair ``(x, y)``
    of (7, B) coordinate tables."""
    tri = mesh.triangles[rows].astype(np.intp)
    return tuple(TRI_BARY @ mesh.nodes[:, d][tri].T for d in range(2))


def f_at_points(f, pts):
    """f at the points ``(x, y)`` of shape (Q, M) as an (M, Q) table, one
    contiguous row q at a time so that f's temporaries stay of shape (M,);
    raises if not finite."""
    x, y = pts
    fvals = np.empty(x.shape[::-1])
    for q in range(len(x)):
        fvals[:, q] = f(x[q], y[q])
    if not np.isfinite(fvals).all():
        raise ValueError("load f is not finite at a quadrature point")
    return fvals

