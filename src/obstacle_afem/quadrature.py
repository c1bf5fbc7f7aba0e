"""Quadrature rules shared across assembly and estimator code."""

import numpy as np

__all__ = ["TRI_BARY", "TRI_WEIGHTS", "gauss_segment", "triangle_points"]

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


def triangle_points(mesh):
    """Quadrature points for every triangle, shape (M, 7, 2)."""
    p = mesh.nodes[mesh.triangles]  # (M, 3, 2)
    return np.einsum("qk,mkd->mqd", TRI_BARY, p)


def gauss_segment(p, q, n=5):
    """Gauss-Legendre points and weights on the segments p-q.

    ``p`` and ``q`` have shape (..., 2).  Returns ``(points, weights)``
    with points of shape (..., n, 2) and weights of shape (..., n)
    summing to each segment's length.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    mid = 0.5 * (p + q)
    half = 0.5 * (q - p)
    pts = mid[..., None, :] + x[:, None] * half[..., None, :]
    length = np.linalg.norm(q - p, axis=-1)
    return pts, w * (length[..., None] / 2.0)
