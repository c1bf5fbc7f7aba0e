"""The per-level kernels in their whole-array form, for the kernel tests.

Each function is the plain form that a kernel of :mod:`obstacle_afem`
replaced with a cheaper one: the quadrature points by ``einsum``, the
hat gradients as one (M, 3, 2) table filled vertex by vertex, the
solution gradients and the local stiffness matrices by ``einsum``, the
stiffness matrix assembled from COO triplets with its stored zeros, its
diagonal and the load summed by ``np.add.at`` in triangle order, the
stiffness and load over all triangles at once (the blocked kernels'
whole-table forms; the stiffness as the sparse sum U + U' + D of its
triangles and diagonal, the form its directly written CSR arrays
replaced), and example 2's force and obstacle Laplacian
evaluated by one formula on the whole domain.  The tests require the
kernels to match them, mostly bit for bit.  Example 1's exact energy by
radial quadrature checks its closed form, and the gradient of its exact
solution (whose values are example 1's g) gives the H1 error.
"""

import numpy as np
import scipy.sparse as sp

from obstacle_afem.problems import (_HALF_WIDTH, _SHIFT,
                                    _gamma1_derivatives)
from obstacle_afem.quadrature import (TRI_BARY, TRI_WEIGHTS, f_at_points,
                                      triangle_points)


def einsum_triangle_points(mesh):
    """Quadrature points, shape (M, 7, 2)."""
    return np.einsum("qk,mkd->mqd", TRI_BARY, mesh.nodes[mesh.triangles])


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


def einsum_solution_gradients(mesh, values):
    """Constant gradient of a P1 function on each triangle, shape (M, 2)."""
    return np.einsum("mid,mi->md", hat_gradients(mesh),
                     values[mesh.triangles])


def local_stiffness(mesh):
    """Element stiffness matrices, shape (M, 3, 3)."""
    grads = hat_gradients(mesh)
    return np.einsum("mid,mjd,m->mij", grads, grads, mesh.areas)


def coo_stiffness(mesh):
    """Stiffness matrix summed from COO triplets; keeps exact zeros."""
    local = local_stiffness(mesh)
    tri = mesh.triangles
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)),
                         shape=(mesh.num_nodes, mesh.num_nodes)).tocsr()


def add_at_stiffness_diagonal(mesh):
    """Stiffness diagonal summed triangle by triangle with ``np.add.at``."""
    d = np.zeros(mesh.num_nodes)
    np.add.at(d, mesh.triangles,
              np.diagonal(local_stiffness(mesh), axis1=1, axis2=2))
    return d


def add_at_load(mesh, f):
    """Load vector summed triangle by triangle with ``np.add.at``."""
    fvals = f_at_points(f, triangle_points(mesh, slice(None)))
    contrib = np.einsum("q,mq,qi,m->mi", TRI_WEIGHTS, fvals, TRI_BARY,
                        mesh.areas)
    b = np.zeros(mesh.num_nodes)
    np.add.at(b, mesh.triangles, contrib)
    return b


def whole_table_stiffness(mesh):
    """Stiffness matrix from the six element entries of all triangles at
    once, summed by ``np.bincount`` per node and per edge, and then as
    the sparse sum U + U' + D, its zeros eliminated."""
    g = hat_gradients(mesh)
    gx, gy = g[..., 0], g[..., 1]
    a = mesh.areas
    n = mesh.num_nodes
    diag, off = np.empty((2, mesh.num_triangles, 3))
    for i in range(3):
        j = (i + 1) % 3
        diag[:, i] = gx[:, i] * gx[:, i] * a + gy[:, i] * gy[:, i] * a
        off[:, i] = gx[:, i] * gx[:, j] * a + gy[:, i] * gy[:, j] * a
    diag = np.bincount(mesh.triangles.ravel(), diag.ravel(), n)
    off = np.bincount(mesh.tri2edge.ravel(), off.ravel(), mesh.num_edges)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(mesh.edges[:, 0], minlength=n), out=indptr[1:])
    upper = sp.csr_matrix((off, mesh.edges[:, 1], indptr), shape=(n, n))
    k = upper + upper.T + sp.diags(diag, format="csr")
    k.eliminate_zeros()
    return k


def whole_table_load(mesh, f):
    """Load vector from the (7, M) quadrature points of all triangles at
    once, summed by ``np.bincount``."""
    x, y = triangle_points(mesh, slice(None))
    a = mesh.areas
    contrib = np.zeros((mesh.num_triangles, 3))
    for q in range(len(TRI_WEIGHTS)):
        fq = f_at_points(f, (x[q:q + 1], y[q:q + 1]))[:, 0]
        for i in range(3):
            contrib[:, i] += TRI_WEIGHTS[q] * fq * TRI_BARY[q, i] * a
    return np.bincount(mesh.triangles.ravel(), weights=contrib.ravel(),
                       minlength=mesh.num_nodes)


def whole_domain_chi_laplacian(x, y):
    x = np.asarray(x, dtype=float)
    val = -2.5 * np.sin(5.0 * (x + _SHIFT))
    return np.where(x < -1.0, val, 0.0) + 0.0 * np.asarray(y, dtype=float)


def whole_domain_example2_f(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = np.hypot(x, y)
    phi = np.arctan2(y, x) + 0.5 * np.pi
    s = np.sin(2.0 * phi / 3.0)
    d1, d2 = _gamma1_derivatives(r)
    rs = np.where(r > 0.0, r, 1.0)
    gamma2 = np.where(r > 1.25, 1.0, 0.0)
    singular = -rs ** (2.0 / 3.0) * s * (d1 / rs + d2) \
        - (4.0 / 3.0) * rs ** (-1.0 / 3.0) * d1 * s
    return np.where(r >= 0.25, singular, 0.0) - gamma2


def example1_gradient(x, y):
    r = np.hypot(x, y)
    rs = np.maximum(r, 1.0)
    fac = np.where(r >= 1.0, 1.0 - 1.0 / rs ** 2, 0.0)
    return fac * x, fac * y


def radial_example1_energy(n_quad=80):
    """Energy of the closed-form solution by radial quadrature.

    The integrand is radially symmetric and vanishes for r < 1; by
    8-fold symmetry of the square the energy is an integral over the
    wedge 0 <= phi <= pi/4, 1 <= r <= 1.5 / cos(phi).
    """
    xg, wg = np.polynomial.legendre.leggauss(n_quad)

    def radial(phi):
        rmax = _HALF_WIDTH / np.cos(phi)
        r = 0.5 * (rmax - 1.0) * (xg + 1.0) + 1.0
        dens = 1.5 * r ** 2 + 0.5 / r ** 2 - 2.0 - 2.0 * np.log(r)
        return 0.5 * (rmax - 1.0) * np.sum(wg * dens * r)

    phis = 0.5 * (np.pi / 4) * (xg + 1.0)
    inner = np.array([radial(p) for p in phis])
    return float(8.0 * 0.5 * (np.pi / 4) * np.sum(wg * inner))
