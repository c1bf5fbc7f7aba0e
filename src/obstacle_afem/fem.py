"""P1 finite element machinery.

Stiffness and load assembly, energy evaluation, and the prolongation
of each bisection generation between nested meshes.  Stiffness entries
are exact (piecewise-constant gradients); area integrals of data use the
order-5 triangle rule from :mod:`obstacle_afem.quadrature`.
"""

import numpy as np
import scipy.sparse as sp

from .quadrature import (TRI_BARY, TRI_WEIGHTS, blocks, f_at_points,
                         triangle_points)

__all__ = [
    "assemble_stiffness",
    "assemble_load",
    "energy",
    "prolong",
    "energy_norm_diff",
    "solution_gradients",
]


def _hat_gradients(nodes, tri, areas):
    """x and y components of the three nodal hat gradients on each
    triangle of ``tri`` with ``areas``, two (B, 3) tables: the edge
    opposite vertex i, rotated by 90 degrees, over twice the area."""
    x, y = (nodes[:, d][tri] for d in range(2))
    twice_area = (2.0 * areas)[:, None]
    gx = -(y[:, [2, 0, 1]] - y[:, [1, 2, 0]]) / twice_area
    gy = (x[:, [2, 0, 1]] - x[:, [1, 2, 0]]) / twice_area
    return gx, gy


def _element_sums(mesh):
    """The stiffness diagonal summed per node and its off-diagonals per
    edge of ``mesh.edges``, both in triangle order, one block at a time."""
    diag, off = np.zeros(mesh.num_nodes), np.zeros(mesh.num_edges)
    for s in blocks(mesh.num_triangles):
        tri, a = mesh.triangles[s].astype(np.intp), mesh.areas[s]
        gx, gy = _hat_gradients(mesh.nodes, tri, a)
        # einsum("mid,mjd,m->mij") bit for bit: its products, in its sum
        # order; entry (i, i + 1) belongs to edge tri2edge[:, i]
        d, o = np.empty((2, len(a), 3))
        for i in range(3):
            j = (i + 1) % 3
            d[:, i] = gx[:, i] * gx[:, i] * a + gy[:, i] * gy[:, i] * a
            o[:, i] = gx[:, i] * gx[:, j] * a + gy[:, i] * gy[:, j] * a
        # one or two terms per edge: the same bits in either order
        np.add.at(diag, tri.ravel(), d.ravel())
        np.add.at(off, mesh.tri2edge[s].ravel(), o.ravel())
    return diag, off


def assemble_stiffness(mesh):
    """Sparse symmetric stiffness matrix of the Dirichlet form, without
    stored zeros (the entry of an edge opposite two right angles), from
    :func:`_element_sums`, whose block temporaries are gone by then.
    The CSR arrays are written directly, with no full-size sum: each
    row holds its entries left of the diagonal, the diagonal, then
    those right of it, columns ascending."""
    n = mesh.num_nodes
    diag, off = _element_sums(mesh)
    # the upper triangle: the edges, sorted by (min, max), are its rows
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(mesh.edges[:, 0], minlength=n), out=indptr[1:])
    # the column ids copied: eliminate_zeros compacts them in place
    upper = sp.csr_matrix((off, mesh.edges[:, 1].copy(), indptr),
                          shape=(n, n))
    upper.eliminate_zeros()
    # the lower triangle by rows: SciPy's CSC copy needs no sort
    lower = upper.tocsc()
    on = diag != 0  # a node in no triangle has an empty row
    left = np.diff(lower.indptr)
    nnz = 2 * upper.nnz + int(on.sum())
    index = np.int32 if nnz <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(on, out=indptr[1:])
    indptr += lower.indptr
    indptr += upper.indptr
    # per row a run of slots up to the diagonal, then one right of it
    slots = np.repeat(np.tile([False, True], n), np.stack(
        [left + on, np.diff(upper.indptr)], axis=1).ravel())
    data = np.empty(nnz)
    indices = np.empty(nnz, dtype=index)
    data[slots] = upper.data
    indices[slots] = upper.indices
    del upper, off
    # the slots neither right of nor at the diagonal: the lower triangle
    at_diag = (indptr[:-1] + left)[on]
    slots[at_diag] = True
    np.logical_not(slots, out=slots)
    data[slots] = lower.data
    indices[slots] = lower.indices
    data[at_diag] = diag[on]
    indices[at_diag] = np.flatnonzero(on)
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def assemble_load(mesh, f):
    """Load vector (f, phi_i) via the 7-point order-5 triangle rule, with
    f evaluated one quadrature point q of one block at a time."""
    b = np.zeros(mesh.num_nodes)
    # einsum("q,mq,qi,m->mi") bit for bit: its products, in its sum order
    for s in blocks(mesh.num_triangles):
        fv = f_at_points(f, triangle_points(mesh, s))
        a = mesh.areas[s]
        contrib = np.zeros((len(a), 3))
        for q in range(len(TRI_WEIGHTS)):
            for i in range(3):
                contrib[:, i] += TRI_WEIGHTS[q] * fv[:, q] * TRI_BARY[q, i] * a
        np.add.at(b, mesh.triangles[s].ravel(), contrib.ravel())
    return b


# an overflow to inf reaches the loop as a non-finite energy
@np.errstate(over="ignore")
def energy(stiffness, load, values):
    """Discrete energy 1/2 V'KV - b'V."""
    return float(0.5 * values @ (stiffness @ values) - load @ values)


def generation(mesh, level, rows=None):
    """Prolongation of bisection generation ``level``, CSR from the nodes
    of level - 1 to those of level, or to its sorted ``rows`` only: old
    node i keeps its value, a new node takes half of each endpoint of its
    (min, max) parent edge, in order.  Its index arrays are int32 like
    ``node_parents``, so SciPy keeps them."""
    old, new = mesh.level_nodes[level - 1:level + 1]
    rows = np.arange(new) if rows is None else rows
    split, count = np.searchsorted(rows, old), len(rows)
    data = np.r_[np.ones(split), np.full(2 * (count - split), 0.5)]
    indices = np.r_[rows[:split].astype(np.int32),
                    mesh.node_parents[rows[split:]].ravel()]
    indptr = np.r_[np.arange(split, dtype=np.int32),
                   np.arange(split, 2 * count - split + 1, 2, dtype=np.int32)]
    return sp.csr_matrix((data, indices, indptr), shape=(count, old))


def prolong(values, fine):
    """Represent a P1 function exactly on ``fine``, one bisection
    generation after the mesh of ``values``, by :func:`generation`."""
    if fine.level < 1 or fine.level_nodes[-2] != len(values):
        raise ValueError("values do not live on the mesh refined by fine")
    return generation(fine, fine.level) @ values


# called before the loop's finiteness check: an overflow stays silent
@np.errstate(over="ignore")
def energy_norm_diff(stiffness, v, w):
    """Energy norm |||v - w||| via the stiffness quadratic form."""
    d = np.asarray(v, dtype=float) - np.asarray(w, dtype=float)
    return float(np.sqrt(max(0.0, d @ (stiffness @ d))))


def solution_gradients(mesh, values):
    """Constant gradient of a P1 function on each triangle, shape (M, 2),
    one block of triangles at a time."""
    grads = np.empty((mesh.num_triangles, 2))
    for s in blocks(mesh.num_triangles):
        tri = mesh.triangles[s].astype(np.intp)
        v = values[tri].T
        for d, g in enumerate(_hat_gradients(mesh.nodes, tri, mesh.areas[s])):
            grads[s, d] = g[:, 0] * v[0] + g[:, 1] * v[1] + g[:, 2] * v[2]
    return grads
