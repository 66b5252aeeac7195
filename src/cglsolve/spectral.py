"""Periodic grids, the FFT pair, per-direction symbols, and the slab pool.

Conventions: the forward transform is unnormalized, the inverse carries
1/N, and direction mu's wavenumbers are 0, 1, ..., floor(n/2),
-ceil(n/2)+1, ..., -1 times 2*pi/(b-a), so an even n has +n/2 at the
Nyquist slot. Extents may be mixed-radix (700 = 2^2 * 5^2 * 7).

``dft_forward``/``dft_inverse`` equal ``np.fft.fftn``/``ifftn`` and
``pointwise_apply`` equals ``factor * u``, bit for bit, whatever the
thread count; a new multi-dimensional transform is C-ordered. Each takes
a keyword-only ``out`` (``check_out``), which may be the input, and
returns it. ``run_slabs`` alone decides, from the entry count, whether
an elementwise kernel's call splits into slabs. The Kronecker products
and ``expm_pade`` hold numpy's BLAS at one thread (``_one_blas_thread``),
so the slab pool's threads are the only ones the package runs.
"""

import contextlib
import contextvars
import ctypes
import glob
import math
import operator
import os
import threading
from dataclasses import dataclass

import numpy as np

from .params import _check_scalar

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
    if not math.isfinite(float(b) - float(a)):
        raise ValueError(f"interval ({a}, {b}) must have a finite length")
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
        try:
            extents = tuple(operator.index(n) for n in self.extents)
        except TypeError:
            raise ValueError(f"extents must be integers, got "
                             f"{self.extents!r}") from None
        object.__setattr__(self, "extents", extents)
        for a, b in self.intervals:
            _check_scalar("interval end", a, float)
            _check_scalar("interval end", b, float)
        object.__setattr__(self, "intervals",
                           tuple((float(a), float(b)) for a, b in self.intervals))
        if len(self.extents) != len(self.intervals):
            raise ValueError("one interval per direction required")
        if not self.extents:
            raise ValueError("need at least one direction")
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
    """Unnormalized forward DFT over all axes; equals ``np.fft.fftn``."""
    return _transform_all_axes(np.asarray(u), np.fft.fft, out)


def dft_inverse(uhat, *, out=None):
    """Inverse DFT carrying the 1/N normalization; equals ``np.fft.ifftn``."""
    return _transform_all_axes(np.asarray(uhat), np.fft.ifft, out)


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# arrays under this many entries run serially: below it two slab threads
# lose to one serial FFT (CHANGES.md, "the FFT serial floor")
_SERIAL_BELOW = 2 ** 15
# entries per pass of every chunked elementwise kernel: each numpy call
# must outlast a hand-off of the GIL between the slab threads
# (CHANGES.md, "Slab kernels that pay for their threads")
_CHUNK = 1 << 15
_THREADS = _usable_cpus()


class _Worker:
    """A daemon thread that runs one range at a time: ``hand`` passes it
    a task through the ``go`` lock and ``take`` waits on ``done`` for the
    outcome. The worker drops the task before it signals, and ``take``
    the outcome, so neither outlives the call."""

    def __init__(self):
        self.go, self.done = threading.Lock(), threading.Lock()
        self.go.acquire()
        self.done.acquire()
        self.task = self.outcome = None
        threading.Thread(target=self._serve, name="cglsolve-slab",
                         daemon=True).start()

    def _serve(self):
        while True:
            self.go.acquire()
            context, fn, lo, hi = self.task
            self.task = None
            try:
                self.outcome = (context.run(fn, lo, hi), None)
            except BaseException as err:  # handed to the caller, re-raised
                self.outcome = (None, err)
            del context, fn
            self.done.release()

    def hand(self, fn, lo, hi):
        self.task = (contextvars.copy_context(), fn, lo, hi)
        self.go.release()

    def take(self):
        self.done.acquire()
        outcome, self.outcome = self.outcome, None
        return outcome


# the workers, started on the first threaded call and added to when a
# call has more ranges; a call holds _busy while it uses them
_workers = []
_busy = threading.Lock()


def _forget_pool():
    # a forked child inherits the workers' objects but none of their
    # threads, the locks as its parent's other threads held them, and
    # their BLAS holds, which no thread of its own will end
    global _workers, _busy, _hold_lock, _holds
    _workers = []
    _busy = threading.Lock()
    _hold_lock = threading.Lock()
    if _holds:
        _holds = 0
        _BLAS[1](_restore)


def _blas_control():
    """(get, set) of the thread count of the OpenBLAS that numpy ships, or
    None where none is found (say, a numpy built on another BLAS)."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir,
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            names = [f"scipy_openblas_{verb}_num_threads{suffix}"
                     for verb in ("get", "set")]
            if all(hasattr(lib, name) for name in names):
                get, put = (getattr(lib, name) for name in names)
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


# numpy's BLAS thread control; the holds in force, under _hold_lock, and
# the count the last of them restores
_BLAS = _blas_control()
_hold_lock = threading.Lock()
_holds = 0
_restore = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


@contextlib.contextmanager
def _one_blas_thread():
    """Hold numpy's OpenBLAS at one thread for the block, so the slab pool
    is the only set of threads at work: OpenBLAS's idle threads spin after
    each threaded call, on the core the next slab needs (README, "Slab
    pool"). Yields True; yields False, holding nothing, where no control
    is found. Nested or concurrent holds count, and the caller's count is
    restored once, when the last ends, on return or error."""
    global _holds, _restore
    if _BLAS is None:
        yield False
        return
    get, put = _BLAS
    with _hold_lock:
        if not _holds:
            _restore = get()
            put(1)
        _holds += 1
    try:
        yield True
    finally:
        with _hold_lock:
            _holds -= 1
            if not _holds:
                put(_restore)


def _transform_all_axes(x, line_fn, out):
    """line_fn over every axis of x, last axis first, as ``np.fft.fftn``
    does, with its bits; 1-D arrays call line_fn, and a 0-d array is a
    ValueError."""
    check_out(out, x.shape)
    if x.ndim == 0:
        raise ValueError("a transform needs an array of at least one axis")
    if x.ndim == 1:
        return line_fn(x, out=out)
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
    """line_fn along `axis` from src into out, one slab per thread: index
    ranges of axis 0 (axis 1 for the axis-0 pass)."""
    split = 1 if axis == 0 else 0

    def transform(lo, hi):
        s = (slice(None),) * split + (slice(lo, hi),)
        line_fn(src[s], axis=axis, out=out[s])

    run_slabs(transform, src.shape[split], src.size)


def run_slabs(fn, n, entries):
    """``[fn(lo, hi), ...]`` over contiguous ranges covering ``range(n)``,
    one per usable CPU, in range order, for work on an array of `entries`
    entries; under _SERIAL_BELOW entries it is ``[fn(0, n)]``, run by the
    caller. Otherwise the caller runs the first range, the pool's workers
    the rest, each in a copy of the caller's context (so its numpy error
    state applies); an error in any range reaches the caller. A call that
    finds the pool in use, by another thread or by the slab it runs in,
    runs its ranges itself, one after another.
    """
    if entries < _SERIAL_BELOW:
        return [fn(0, n)]
    cuts = [n * i // _THREADS for i in range(_THREADS + 1)]
    ranges = [(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if hi > lo]
    if len(ranges) < 2 or not _busy.acquire(blocking=False):
        return [fn(lo, hi) for lo, hi in ranges]
    outcomes = None
    try:
        while len(_workers) < len(ranges) - 1:
            _workers.append(_Worker())
        workers = _workers[:len(ranges) - 1]
        for worker, (lo, hi) in zip(workers, ranges[1:]):
            worker.hand(fn, lo, hi)
        try:
            first = fn(*ranges[0])
        finally:
            outcomes = [worker.take() for worker in workers]
    finally:
        if outcomes is None:
            # interrupted before every outcome was taken: a late one would
            # answer the next call, so later calls start new workers
            _workers.clear()
        _busy.release()
    for _, err in outcomes:
        if err is not None:
            raise err
    return [first] + [result for result, _ in outcomes]


def memory_order(arrays, out=()):
    """"C" or "F": the order the ``out`` arrays (None entries left out)
    and all of ``arrays`` share; else the order of the ``out`` arrays,
    which must have one (ValueError); else C. The elementwise kernels
    walk it, copying arrays stored otherwise once (``np.ravel``)."""
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
    carries alpha2 + advection_sign * alpha0 * (i k_1[j]), with
    advection_sign +1 or -1 for the two coupled components and 0 for
    scalar problems. The full symbol is their Kronecker sum.
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
    """factor * u for two arrays of one shape, else ValueError. It keeps
    the transforms' floor: in solves, slab threads win at 64^3 and 128^3
    but lose at 700x350, and size alone does not separate these
    (CHANGES.md, "Fused elementwise layer, second round")."""
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

    run_slabs(multiply, u.size, u.size)
    return out
