"""Fourier pseudospectral grids, transforms, and diagonal symbols.

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
``np.fft.fftn``/``ifftn``, so the results equal theirs bit for bit.
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
    "build_symbol",
    "symbol_exponential",
    "pointwise_apply",
]


def wavenumber_table(n, interval):
    """Per-direction wavenumbers for a periodic grid of n points on (a, b)."""
    a, b = interval
    if n < 2:
        raise ValueError("need at least two grid points per direction")
    if not b > a:
        raise ValueError(f"empty interval ({a}, {b})")
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
        for n, (a, b) in zip(self.extents, self.intervals):
            if n < 2:
                raise ValueError("need at least two grid points per direction")
            if not b > a:
                raise ValueError(f"empty interval ({a}, {b})")

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

    def meshgrid(self):
        axes = [self.nodes(k) for k in range(self.ndim)]
        return np.meshgrid(*axes, indexing="ij")


def dft_forward(u):
    """Unnormalized forward DFT over all axes; equals ``np.fft.fftn``."""
    return _transform_all_axes(np.asarray(u), np.fft.fft, np.fft.fftn)


def dft_inverse(uhat):
    """Inverse DFT carrying the 1/N normalization; equals ``np.fft.ifftn``."""
    return _transform_all_axes(np.asarray(uhat), np.fft.ifft, np.fft.ifftn)


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


_SERIAL_BELOW = 2 ** 15
_THREADS = _usable_cpus()
_pool = None
_pool_lock = threading.Lock()


def _executor():
    """The shared worker pool, created on the first threaded transform.

    The calling thread transforms one slab itself, so the pool has one
    thread fewer than there are slabs.
    """
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_THREADS - 1,
                                       thread_name_prefix="cglsolve-fft")
        return _pool


def _forget_pool():
    # a forked child inherits the pool object but none of its threads
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _transform_all_axes(x, line_fn, nd_fn):
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
    if x.ndim == 1:
        return line_fn(x)
    if x.size < _SERIAL_BELOW or _THREADS < 2:
        return nd_fn(x)
    # the first pass reads x; later passes work in place on out, each thread
    # on the same slab of both, so x is never written
    out = np.empty(x.shape, np.result_type(x.dtype, 1j))
    src = x
    for axis in reversed(range(x.ndim)):
        _slab_pass(line_fn, src, out, axis)
        src = out
    return out


def _slab_pass(line_fn, src, out, axis):
    """line_fn along `axis` from src into out, one slab per thread.

    Slabs are index ranges of axis 0 (axis 1 for the axis-0 pass). Each
    worker runs in a copy of the caller's context, so the caller's numpy
    floating-point error state applies there too. Every future is waited
    for and read, so an error in any slab reaches the caller.
    """
    split = 1 if axis == 0 else 0
    n = src.shape[split]
    cuts = [n * i // _THREADS for i in range(_THREADS + 1)]
    slabs = [(slice(None),) * split + (slice(lo, hi),)
             for lo, hi in zip(cuts, cuts[1:]) if hi > lo]
    pool = _executor()
    futures = [pool.submit(contextvars.copy_context().run, line_fn, src[s],
                           axis=axis, out=out[s])
               for s in slabs[1:]]
    try:
        line_fn(src[slabs[0]], axis=axis, out=out[slabs[0]])
    finally:
        wait(futures)
    for f in futures:
        f.result()


def build_symbol(grid, params, advection_sign=0):
    """Diagonal Fourier symbol of the linear part.

    value[j] = (alpha1 + i beta1) * (-sum_mu k_mu[j_mu]^2) + alpha2
               + advection_sign * alpha0 * (i k_1[j_1])

    advection_sign is +1 for the first coupled component, -1 for the
    second, 0 for scalar problems.
    """
    if advection_sign not in (-1, 0, 1):
        raise ValueError("advection_sign must be -1, 0 or +1")
    shape = grid.shape
    ksq = np.zeros(shape)
    for axis in range(grid.ndim):
        k = grid.wavenumbers(axis)
        expand = [None] * grid.ndim
        expand[axis] = slice(None)
        ksq = ksq + (k ** 2)[tuple(expand)]
    symbol = params.diffusion * (-ksq) + params.alpha2
    if advection_sign != 0:
        k1 = grid.wavenumbers(0)
        expand = [None] * grid.ndim
        expand[0] = slice(None)
        symbol = symbol + advection_sign * params.alpha0 * (1j * k1[tuple(expand)])
    return symbol


def symbol_exponential(symbol, tau):
    """Elementwise exponential tensor exp(tau * symbol)."""
    if not np.isfinite(tau):
        raise ValueError("tau must be finite")
    return np.exp(tau * np.asarray(symbol))


def pointwise_apply(factor, u):
    """Elementwise product with shape validation."""
    factor = np.asarray(factor)
    u = np.asarray(u)
    if factor.shape != u.shape:
        raise ValueError(f"shape mismatch {factor.shape} vs {u.shape}")
    return factor * u
