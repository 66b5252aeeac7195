"""Fourier pseudospectral grids, transforms, and per-direction symbols.

Transforms delegate to numpy's pocketfft, which handles mixed-radix extents
(e.g. 700 = 2^2 * 5^2 * 7). Conventions pinned here and checked against a
direct-summation oracle in the tests: the forward transform is unnormalized,
the inverse carries the 1/N factor, and the integer wavenumber table per
direction is 0, 1, ..., floor(n/2), -ceil(n/2)+1, ..., -1 scaled by
2*pi/(b-a). Note the positive sign at the Nyquist slot for even n.

Multi-dimensional transforms run on threads, one per usable CPU. They make
the axis passes of ``np.fft.fftn`` in its order, last axis first; each pass
splits the array into contiguous slabs along another axis and transforms
one slab per thread into a shared output buffer. numpy's 1-D transforms
release the GIL and every line goes through the same pocketfft call as in
``np.fft.fftn``/``ifftn``, so the results equal theirs bit for bit. The
worker pool and ``run_slabs``, which splits an index range across it, are
shared with the elementwise kernels: ``pointwise_apply`` here, the exact
flows and ``eval_g`` (``flows.py``) and the step combinations
(``integrators.py``). Each kernel walks its operands' shared
memory order (``memory_order``) from arrays of _SERIAL_BELOW entries on,
in _CHUNK-entry chunks with per-thread scratch, computing every entry
the same way whatever the split.

The transforms and ``pointwise_apply`` take a keyword-only ``out``, a
complex array of the result's shape (``check_out``) that may be the input
itself; the result is written there, with the bits of a new result, and
``out`` is returned. The steppers pass arrays of their workspace, so a
step makes no new full-size arrays.
"""

import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FourierGrid",
    "dft_forward",
    "dft_inverse",
    "wavenumber_table",
    "direction_symbols",
    "symbol_exponential",
    "pointwise_apply",
]


def _check_direction(n, interval):
    a, b = interval
    if n < 2:
        raise ValueError("need at least two grid points per direction")
    if not b > a:
        raise ValueError(f"empty interval ({a}, {b})")
    return a, b


def wavenumber_table(n, interval):
    """Per-direction wavenumbers for a periodic grid of n points on (a, b)."""
    a, b = _check_direction(n, interval)
    modes = np.arange(n)
    modes = np.where(modes > n // 2, modes - n, modes)
    return modes * (2.0 * np.pi / (b - a))


@dataclass(frozen=True)
class FourierGrid:
    """Uniform periodic grid: extents (n_1, ..., n_d), intervals ((a, b), ...)."""

    extents: tuple
    intervals: tuple

    def __post_init__(self):
        object.__setattr__(self, "extents", tuple(int(n) for n in self.extents))
        object.__setattr__(self, "intervals",
                           tuple((float(a), float(b)) for a, b in self.intervals))
        if len(self.extents) != len(self.intervals):
            raise ValueError("one interval per direction required")
        for n, interval in zip(self.extents, self.intervals):
            _check_direction(n, interval)

    @property
    def ndim(self):
        return len(self.extents)

    @property
    def shape(self):
        return self.extents

    def nodes(self, axis):
        """Grid nodes x_j = a + j (b - a)/n, j = 0..n-1 (left endpoint kept)."""
        n = self.extents[axis]
        a, b = self.intervals[axis]
        return a + np.arange(n) * ((b - a) / n)

    def wavenumbers(self, axis):
        return wavenumber_table(self.extents[axis], self.intervals[axis])


def dft_forward(u, *, out=None):
    """Unnormalized forward DFT over all axes; equals ``np.fft.fftn``.

    With ``out`` (a complex array of u's shape, which may be u itself) the
    result is written there and ``out`` is returned.
    """
    return _transform_all_axes(np.asarray(u), np.fft.fft, np.fft.fftn, out)


def dft_inverse(uhat, *, out=None):
    """Inverse DFT carrying the 1/N normalization; equals ``np.fft.ifftn``.

    ``out`` as for ``dft_forward``.
    """
    return _transform_all_axes(np.asarray(uhat), np.fft.ifft, np.fft.ifftn,
                               out)


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


_SERIAL_BELOW = 2 ** 15
# entries per pass of the chunked elementwise kernels (flows, eval_g, step
# combinations): a chunk's operands and scratch (under
# 1 MiB) stay in cache, and numpy's per-call cost is small against the
# work of a chunk
_CHUNK = 1 << 13
_THREADS = _usable_cpus()
_pool = None
_pool_lock = threading.Lock()


def _executor():
    """The shared worker pool, created on the first threaded call.

    The calling thread runs one slab itself, so the pool has one thread
    fewer than there are slabs.
    """
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_THREADS - 1,
                                       thread_name_prefix="cglsolve-slab")
        return _pool


def _forget_pool():
    # a forked child inherits the pool object but none of its threads
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _transform_all_axes(x, line_fn, nd_fn, out):
    """line_fn over every axis of x, last axis first, as nd_fn does.

    Serial paths: 1-D arrays call line_fn directly (the same bits as
    nd_fn, 3.5 vs 4.5 us for 256 points); arrays under _SERIAL_BELOW
    entries and machines with one usable CPU call nd_fn. The floor comes
    from the median of 15 calls, serial fftn vs two slab threads, two runs
    on a 2-CPU AMD EPYC VM with numpy 2.4.6: 24^3 (13,824 entries) 83 vs
    112-125 us loses, 128^2 (16,384) 164 vs 102-136 us is close, and from
    32^3 (32,768; 400 vs 220-320 us) up threads win: 256^2 0.75 vs
    0.31-0.53 ms, 700x350 1.3-1.5 vs 0.7 ms, 64^3 4.2-5.7 vs 1.3-2.8 ms,
    128^3 34-35 vs 15 ms.
    """
    check_out(out, x.shape)
    if x.ndim == 1:
        return line_fn(x, out=out)
    if x.size < _SERIAL_BELOW or _THREADS < 2:
        return nd_fn(x, out=out)
    # the first pass reads x; later passes work in place on out, each thread
    # on the same slab of both, so x is written only if it is out
    if out is None:
        out = np.empty(x.shape, np.result_type(x.dtype, 1j))
    src = x
    for axis in reversed(range(x.ndim)):
        _slab_pass(line_fn, src, out, axis)
        src = out
    return out


def _slab_pass(line_fn, src, out, axis):
    """line_fn along `axis` from src into out, one slab per thread.

    Slabs are index ranges of axis 0 (axis 1 for the axis-0 pass).
    """
    split = 1 if axis == 0 else 0

    def transform(lo, hi):
        s = (slice(None),) * split + (slice(lo, hi),)
        line_fn(src[s], axis=axis, out=out[s])

    run_slabs(transform, src.shape[split])


def run_slabs(fn, n):
    """``[fn(lo, hi), ...]`` over contiguous ranges covering ``range(n)``.

    One range per usable CPU; the calling thread runs the first and the
    shared pool the rest. Each worker runs in a copy of the caller's
    context, so the caller's numpy floating-point error state applies
    there too. Every future is waited for and read, so an error in any
    range reaches the caller. Results come back in range order.
    """
    cuts = [n * i // _THREADS for i in range(_THREADS + 1)]
    ranges = [(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if hi > lo]
    if len(ranges) < 2:
        return [fn(lo, hi) for lo, hi in ranges]
    pool = _executor()
    futures = [pool.submit(contextvars.copy_context().run, fn, lo, hi)
               for lo, hi in ranges[1:]]
    try:
        first = fn(*ranges[0])
    finally:
        wait(futures)
    return [first] + [f.result() for f in futures]


def memory_order(arrays, out=()):
    """"C" or "F": the memory order the elementwise kernels walk.

    The order the ``out`` arrays (None entries left out) and all of
    ``arrays`` share; else the order of the ``out`` arrays, which must
    have one (ValueError); else C. Arrays stored otherwise are copied
    once by ``np.ravel``.
    """
    out = tuple(a for a in out if a is not None)
    for group in (out + tuple(arrays), out):
        for order in ("C", "F"):
            if all(a.flags[order + "_CONTIGUOUS"] for a in group):
                return order
    raise ValueError("out must be a C- or F-contiguous array")


def check_out(out, shape):
    """ValueError unless out is None or a complex128 array of `shape`."""
    if out is not None and not (isinstance(out, np.ndarray)
                                and out.shape == tuple(shape)
                                and out.dtype == np.complex128):
        raise ValueError(
            f"out must be a complex128 array of shape {tuple(shape)}")


def direction_symbols(grid, params, advection_sign=0):
    """The linear part's symbol per direction, one 1-D array each.

    s_mu[j] = (alpha1 + i beta1) * (-k_mu[j]^2); direction 0 also
    carries alpha2 + advection_sign * alpha0 * (i k_1[j]). The full
    symbol is their Kronecker sum, value[j] = sum_mu s_mu[j_mu].

    advection_sign is +1 for the first coupled component, -1 for the
    second, 0 for scalar problems.
    """
    if advection_sign not in (-1, 0, 1):
        raise ValueError("advection_sign must be -1, 0 or +1")
    ks = [grid.wavenumbers(axis) for axis in range(grid.ndim)]
    symbols = [params.diffusion * (-(k ** 2)) for k in ks]
    symbols[0] = symbols[0] + params.alpha2
    if advection_sign != 0:
        symbols[0] = symbols[0] + advection_sign * params.alpha0 * (1j * ks[0])
    return symbols


def symbol_exponential(symbol, tau):
    """Elementwise exponential tensor exp(tau * symbol)."""
    if not np.isfinite(tau):
        raise ValueError("tau must be finite")
    return np.exp(tau * np.asarray(symbol))


def pointwise_apply(factor, u, *, out=None):
    """Elementwise product with shape validation.

    With ``out`` (a complex array of u's shape, which may be u itself) the
    product is written there and ``out`` is returned. Below
    _SERIAL_BELOW entries this is ``factor * u``; larger products
    run one slab per usable CPU over the operands' shared memory order,
    with the same bits. The floor is the transforms'. Timed both ways on
    the arrays of real solves (2-vCPU VM, medians), the threaded product
    took 0.72 against 1.02 ms at 64^3 and 10.2 against 16.6 ms at 128^3,
    but 1.27 against 1.10 ms at 700x350. Size alone does not separate
    these (245,000 entries against 64^3's 262,144), so no other floor is
    set. Timed alone, on one array reused, it lost at every size.
    """
    factor = np.asarray(factor)
    u = np.asarray(u)
    if factor.shape != u.shape:
        raise ValueError(f"shape mismatch {factor.shape} vs {u.shape}")
    check_out(out, u.shape)
    if u.size < _SERIAL_BELOW:
        return np.multiply(factor, u, out=out)
    order = memory_order((factor, u), (out,))
    f, x = np.ravel(factor, order), np.ravel(u, order)
    if out is None:
        out = np.empty(u.shape, np.result_type(factor, u), order=order)
    dst = out.ravel(order)

    def multiply(lo, hi):
        np.multiply(f[lo:hi], x[lo:hi], out=dst[lo:hi])

    run_slabs(multiply, u.size)
    return out
