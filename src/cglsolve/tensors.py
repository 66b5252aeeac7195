"""Dense tensor kernels for Kronecker-form operators.

A state tensor ``u`` has shape ``(n_1, ..., n_d)``, and ``vec(u)`` stacks
its entries first-index-fastest (column-major). Under that convention the mode
products implemented here satisfy, for d = 2,

    vec(mu_mode_product(u, m, 0)) == kron(eye(n_2), m) @ vec(u)
    vec(tucker_apply(u, [m1, m2])) == kron(m2, m1) @ vec(u)

and ``kron_sum_apply`` realizes the action of the Kronecker sum
``sum_mu I (x) ... (x) a_mu (x) ... (x) I`` without forming it. The cost of
every routine is one dense matrix product per direction, i.e.
O((n_1 + ... + n_d) * N) for N tensor entries.

Layout follows the column-major mu-mode (KronPACK) scheme of Caliari,
Cassini & Zivcovich, Numer. Algorithms (2023). Reshaped without a copy,
an F-ordered tensor is an F-ordered ``(a, n_mu, b)`` array for every
direction mu (a and b multiply the extents before and after mu), so each
mode product is a GEMM on a view, never a ``moveaxis`` copy: ``m @ X`` for
the first direction, ``X @ m.T`` for the last, and a batch of
``X_k @ m.T`` over b for the others. Products read F-ordered input as it
is, C-ordered input as its F-ordered transpose, and copy any other
strides once; the output is C-ordered for C-ordered input and F-ordered
otherwise. ``tucker_apply`` makes one full-size output
buffer: the last direction is one GEMM into it, and the other directions
are applied in place, block by block along the last axis, through
block-sized scratch, so each block stays in cache while its products run.
The solver's states stay F-ordered from the initial data through every
step and snapshot.
"""

import math

import numpy as np

from .spectral import check_out

__all__ = [
    "mu_mode_product",
    "tucker_apply",
    "kron_sum_apply",
]

# tucker_apply's in-place blocks hold at least this many entries (256 KiB
# of complex data), so that a 2-D tensor's first direction is applied to
# many columns per GEMM instead of one matrix-vector product per column
_BLOCK = 1 << 14


def _checked(u, mats, axes):
    """u as an array and mats as matrices whose columns fit their axes."""
    u = np.asarray(u)
    mats = [np.asarray(m) for m in mats]
    for m, axis in zip(mats, axes):
        if m.ndim != 2:
            raise ValueError(f"factor must be a matrix, got ndim={m.ndim}")
        if not 0 <= axis < u.ndim:
            raise ValueError(
                f"axis {axis} out of range for order-{u.ndim} tensor")
        if m.shape[1] != u.shape[axis]:
            raise ValueError(
                f"factor columns {m.shape[1]} != extent {u.shape[axis]} "
                f"of axis {axis}")
    return u, mats


def _one_per_direction(u, mats):
    """_checked for a tensor of order >= 1 and one factor per direction."""
    u = np.asarray(u)
    if u.ndim == 0:
        raise ValueError("need a tensor with at least one direction")
    if len(mats) != u.ndim:
        raise ValueError(f"need {u.ndim} factors, got {len(mats)}")
    return _checked(u, mats, range(u.ndim))


def _column_major(u, like=None):
    """u as an F-ordered array, and whether that array is u.T.

    If ``like`` (default u) is C-ordered and not also F-ordered, u is used
    through its transpose, whose directions are u's reversed; u is copied
    where its strides do not fit.
    """
    like = u if like is None else like
    if like.flags.c_contiguous and not like.flags.f_contiguous:
        return np.asfortranarray(u.T), True
    return np.asfortranarray(u), False


def _mode_pass(x, mat, axis, out):
    """out = x x_axis mat, with x and out F-ordered of matching shapes."""
    n, r = x.shape[axis], mat.shape[0]
    a = math.prod(x.shape[:axis])
    b = math.prod(x.shape[axis + 1:])
    if a == 1:
        np.matmul(mat, x.reshape(n, b, order="F"),
                  out=out.reshape(r, b, order="F"))
    else:
        # a batch over b of (a, n) @ mat.T, each entry F-ordered
        np.matmul(x.reshape(a, n, b, order="F").transpose(2, 0, 1), mat.T,
                  out=out.reshape(a, r, b, order="F").transpose(2, 0, 1))


def _mode_shape(shape, mat, axis):
    return shape[:axis] + (mat.shape[0],) + shape[axis + 1:]


def mu_mode_product(u, mat, axis):
    """Apply ``mat`` along direction ``axis`` of tensor ``u``.

    Parameters
    ----------
    u : array_like, shape (n_1, ..., n_d)
    mat : array_like, shape (m, n_axis)
    axis : int
        Zero-based direction index.
    """
    u, (mat,) = _checked(u, [mat], [axis])
    x, transposed = _column_major(u)
    if transposed:
        axis = u.ndim - 1 - axis
    out = np.empty(_mode_shape(x.shape, mat, axis),
                   np.result_type(x.dtype, mat.dtype), order="F")
    _mode_pass(x, mat, axis, out)
    return out.T if transposed else out


def tucker_apply(u, mats, *, out=None):
    """Apply one matrix per direction: ``u x_1 m_1 x_2 m_2 ...``.

    With ``out``, a C- or F-contiguous complex array of the result's shape
    that shares no memory with u, the result is written there and ``out``
    is returned.
    """
    u, mats = _one_per_direction(u, mats)
    if out is not None:
        check_out(out, tuple(m.shape[0] for m in mats))
        if not (out.flags.c_contiguous or out.flags.f_contiguous):
            raise ValueError("out must be a C- or F-contiguous array")
        if np.shares_memory(out, u):
            raise ValueError("out must not share memory with u")
    x, transposed = _column_major(u, out)
    if not transposed:
        return _tucker_column_major(x, mats, out)
    result = _tucker_column_major(x, mats[::-1],
                                  None if out is None else out.T).T
    return result if out is None else out


def _tucker_column_major(x, mats, out):
    """tucker_apply for an F-ordered x into the F-ordered out (or a new
    array)."""
    lead, last = mats[:-1], mats[-1]
    dtype = np.result_type(x.dtype, *mats)
    shape = _mode_shape(x.shape, last, x.ndim - 1)
    # shapes of one last-axis slice before and after each leading product
    shapes = [shape[:-1]]
    for axis, m in enumerate(lead):
        shapes.append(_mode_shape(shapes[-1], m, axis))
    if out is None:
        out = np.empty(shapes[-1] + shape[-1:], dtype, order="F")
    buf = out
    if shapes[-1] != shapes[0]:  # a rectangular factor resizes the slices
        buf = np.empty(shape, dtype, order="F")
    _mode_pass(x, last, x.ndim - 1, buf)
    if not lead:
        return buf
    width = -(-_BLOCK // max(1, math.prod(shapes[0])))
    size = max(map(math.prod, shapes[1:-1]), default=0) * width
    scratch = [np.empty(size, dtype) for _ in range(min(len(lead) - 1, 2))]
    for lo in range(0, buf.shape[-1], width):
        _leading_passes(buf[..., lo:lo + width], lead, shapes,
                        out[..., lo:lo + width], scratch)
    return out


def _leading_passes(src, mats, shapes, dst, scratch):
    """Every mats[k] along axis k of the F-ordered block src, into dst.

    Products alternate between the scratch buffers and the last one
    writes dst. dst may be src: numpy gives an overlapping matmul the
    result it would have without overlap.
    """
    width = src.shape[-1]
    cur = src
    for axis, m in enumerate(mats[:-1]):
        shape = shapes[axis + 1] + (width,)
        nxt = scratch[axis % 2][:math.prod(shape)].reshape(shape, order="F")
        _mode_pass(cur, m, axis, nxt)
        cur = nxt
    _mode_pass(cur, mats[-1], len(mats) - 1, dst)


def kron_sum_apply(u, mats):
    """Action of the Kronecker sum of ``mats`` on ``u``.

    Equivalent to the explicit Kronecker-sum matrix times ``vec(u)``,
    reshaped back, but never forms the big matrix.
    """
    u, mats = _one_per_direction(u, mats)
    out = None
    for axis, m in enumerate(mats):
        term = mu_mode_product(u, m, axis)
        out = term if out is None else out + term
    return out
