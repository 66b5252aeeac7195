"""Mu-mode and Tucker products for Kronecker-form operators.

With ``vec(u)`` stacking the entries of u, shape (n_1, ..., n_d),
first-index-fastest (column-major), for d = 2

    vec(tucker_apply(u, [m, eye(n_2)])) == kron(eye(n_2), m) @ vec(u)
    vec(tucker_apply(u, [m1, m2])) == kron(m2, m1) @ vec(u)

and ``kron_sum_apply`` applies their Kronecker sum without forming it.
Factors are square, n_mu x n_mu (else ValueError). Each costs one GEMM
per direction, or, for a factor mostly of exact zeros, one per block of
rows over the columns it touches: its plan, which a ``Factors`` list
carries and a plain list gets on the call. Results, ``out`` included,
are F-ordered. With the BLAS at one thread (``spectral._one_blas_thread``)
the GEMMs run on the slab pool, with the bits of unsplit GEMMs.
"""

import math

import numpy as np

from . import spectral

__all__ = [
    "Factors",
    "tucker_apply",
    "kron_sum_apply",
]

# tucker_apply's in-place blocks hold at least this many entries, enough
# columns for each row block's GEMM (CHANGES.md, "Banded mu-mode products")
_BLOCK = 1 << 16
# rows per GEMM of a factor with zero entries (_row_blocks)
_ROWS = 32
# one GEMM over the whole factor
_WHOLE = ((slice(None), slice(None)),)
# rows (or columns) per unit of a slab split, a multiple of every GEMM
# kernel's unroll, so a slab's GEMM groups its rows as the whole one does
_UNIT = 16


def _row_blocks(mat):
    """(rows, cols) slices of mat, one per block of _ROWS rows, cols the
    span of that block's nonzero columns; None, for one GEMM, when there
    are fewer than two blocks or they cover more than 3/4 of mat."""
    m, n = mat.shape
    if m <= _ROWS:
        return None
    blocks, cover = [], 0
    for lo in range(0, m, _ROWS):
        cols = np.flatnonzero(mat[lo:lo + _ROWS].any(axis=0))
        c0, c1 = (int(cols[0]), int(cols[-1]) + 1) if cols.size else (0, 0)
        blocks.append((slice(lo, lo + _ROWS), slice(c0, c1)))
        cover += (min(m, lo + _ROWS) - lo) * (c1 - c0)
    return None if cover > 0.75 * m * n else blocks


def _mode_pass(x, mat, axis, out, blocks):
    """out = x x_axis mat, with x and out F-ordered of one shape: one GEMM
    per (rows, cols) block of mat, or one in all if blocks is None."""
    n = x.shape[axis]
    a = math.prod(x.shape[:axis])
    b = math.prod(x.shape[axis + 1:])
    if a == 1:
        src, dst = x.reshape(n, b, order="F"), out.reshape(n, b, order="F")
        for rows, cols in blocks or _WHOLE:
            np.matmul(mat[rows, cols], src[cols], out=dst[rows])
    else:
        # a batch over b of (a, n) @ mat.T, each entry F-ordered
        src = x.reshape(a, n, b, order="F").transpose(2, 0, 1)
        dst = out.reshape(a, n, b, order="F").transpose(2, 0, 1)
        for rows, cols in blocks or _WHOLE:
            np.matmul(src[..., cols], mat[rows, cols].T, out=dst[..., rows])


def _split_pass(x, mat, axis, out, blocks, held):
    """_mode_pass on the slab pool if ``held`` (the BLAS at one thread),
    else whole in the caller: the last direction by rows of the (a, n)
    view, the others by ranges of the last axis. A slab's GEMMs form its
    entries with the whole GEMM's sums, so the split keeps the bits."""
    split = x.ndim - 1
    if axis == split:
        shape = (math.prod(x.shape[:-1]), x.shape[-1])
        x, out = x.reshape(shape, order="F"), out.reshape(shape, order="F")
        axis, split = 1, 0

    units = max(1, x.shape[split] // _UNIT)

    def slab(lo, hi):
        # the last slab takes the rows past the last whole unit
        end = hi * _UNIT if hi < units else None
        s = (slice(None),) * split + (slice(lo * _UNIT, end),)
        _mode_pass(x[s], mat, axis, out[s], blocks)

    spectral.run_slabs(slab, units, x.size if held else 0)


class Factors(list):
    """The factors of a product, one per direction: ``build(m)`` for each
    of ``matrices``, and in ``plans`` each factor's block plan. Matrices
    equal bit for bit (all three of a cube's) share one factor and plan,
    each made once. A factor changed in place keeps its stale plan."""

    def __init__(self, matrices, build=np.asarray):
        made, keys = {}, []
        for m in map(np.asarray, matrices):
            if m.ndim != 2:
                raise ValueError(f"factor must be a matrix, got ndim={m.ndim}")
            key = (m.dtype, m.shape, m.tobytes())
            if key not in made:
                factor = build(m)
                made[key] = factor, _row_blocks(factor)
            keys.append(key)
        super().__init__(made[key][0] for key in keys)
        self.plans = [made[key][1] for key in keys]


def _checked(u, mats, out):
    """u as an F-ordered array, mats as Factors (a plain list planned
    here) and out, made with the result's dtype if None; ValueError unless
    u has a direction and mats one square factor per direction that fits
    it, and unless out is None or an F-contiguous complex128 array of u's
    shape that shares no memory with u."""
    u = np.asarray(u)
    if u.ndim == 0:
        raise ValueError("need a tensor with at least one direction")
    if len(mats) != u.ndim:
        raise ValueError(f"need {u.ndim} factors, got {len(mats)}")
    if not isinstance(mats, Factors):
        mats = Factors(mats)
    for axis, (n, m) in enumerate(zip(u.shape, mats)):
        if m.shape != (n, n):
            raise ValueError(f"factor of axis {axis} must be {n} x {n}, "
                             f"got {m.shape[0]} x {m.shape[1]}")
    if out is not None:
        spectral.check_out(out, u.shape)
        if np.shares_memory(out, u):
            raise ValueError("out must not share memory with u")
        if not out.flags.f_contiguous:
            raise ValueError("out must be an F-contiguous array")
    x = np.asfortranarray(u)
    if out is None:
        out = np.empty(x.shape, np.result_type(x.dtype, *mats), order="F")
    return x, mats, out


def tucker_apply(u, mats, *, out=None):
    """Apply one matrix per direction: ``u x_1 m_1 x_2 m_2 ...``, with
    the plans of ``mats`` if it is ``Factors``. ``out``, if given, is an
    F-contiguous complex128 array of u's shape that shares no memory with
    u; it is written and returned. The last direction is one pass into
    the result, and the others run in place on cache-sized blocks of its
    last axis."""
    x, mats, out = _checked(u, mats, out)
    with spectral._one_blas_thread() as held:
        _split_pass(x, mats[-1], x.ndim - 1, out, mats.plans[-1], held)
        if len(mats) > 1:
            _blocked_leading_passes(out, mats[:-1], mats.plans, held)
    return out


def _blocked_leading_passes(out, lead, plans, held):
    """_leading_passes over blocks of out's last axis, ranges of blocks on
    the slab pool if ``held``, each range with its own scratch."""
    # a lone leading pass reads the rows it writes, which a blocked pass
    # must not do, so it writes scratch too
    through = len(lead) == 1 and plans[0] is not None
    slab = max(1, math.prod(out.shape[:-1]))
    width = -(-_BLOCK // slab)
    starts = range(0, out.shape[-1], width)

    def blocks(lo, hi):
        scratch = [np.empty(slab * width, out.dtype)
                   for _ in range(min(len(lead) - 1 + through, 2))]
        for start in starts[lo:hi]:
            _leading_passes(out[..., start:start + width], lead, plans,
                            scratch, through)

    spectral.run_slabs(blocks, len(starts), out.size if held else 0)


def _leading_passes(block, mats, plans, scratch, through):
    """Every mats[k] along axis k of the F-ordered block, in place, through
    alternating scratch buffers; with ``through`` the last pass writes
    scratch too, copied back. numpy gives an overlapping matmul the result
    it would have without overlap."""
    cur = block
    for axis, m in enumerate(mats):
        nxt = block
        if axis < len(mats) - 1 or through:
            nxt = scratch[axis % 2][:block.size].reshape(block.shape,
                                                         order="F")
        _mode_pass(cur, m, axis, nxt, plans[axis])
        cur = nxt
    if through:
        block[...] = cur


def kron_sum_apply(u, mats, *, out=None):
    """Action of the Kronecker sum of ``mats`` on ``u``, without forming
    the Kronecker-sum matrix; ``mats`` and ``out`` as for
    ``tucker_apply``. The terms add in direction order."""
    x, mats, out = _checked(u, mats, out)
    term = np.empty_like(out)
    with spectral._one_blas_thread() as held:
        for k, (m, plan) in enumerate(zip(mats, mats.plans)):
            _split_pass(x, m, k, term if k else out, plan, held)
            if k:
                np.add(out, term, out=out)
    return out
