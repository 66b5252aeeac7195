"""Deterministic counter-based random numbers for initial data.

Value i of the stream is splitmix64 of seed + (i+1) * golden gamma (mod
2^64); its top 53 bits map to a uniform in (0, 1], and consecutive
uniform pairs feed the Box-Muller transform. Any (seed, index) pair
gives the same double on every platform, however many values are drawn,
and the bits do not depend on the chunk, the slab split or the thread
count. A seed that is not an integer in 0..2^64-1 is a ValueError.
"""

from functools import partial

import numpy as np

from . import spectral

__all__ = ["normal_tensor"]

_GAMMA = 0x9E3779B97F4A7C15
_MIX = ((30, np.uint64(0xBF58476D1CE4E5B9)),
        (27, np.uint64(0x94D049BB133111EB)))
_MASK = (1 << 64) - 1
_TWO53 = float(1 << 53)
# normal pairs per chunk: larger chunks are faster, but their scratch
# stays resident (CHANGES.md, "a streamed, slab-threaded generator")
_PAIRS = 1 << 12


def _check_seed(seed):
    if not isinstance(seed, (int, np.integer)):
        raise ValueError("seed must be an integer")
    if not 0 <= int(seed) < 2 ** 64:
        raise ValueError("seed must fit in 64 bits")
    return int(seed)


def _gammas(count):
    """i * gamma mod 2^64 for i < count."""
    return np.arange(count, dtype=np.uint64) * np.uint64(_GAMMA)


def _uniforms_into(seed, start, gammas, out, z, t):
    """The uniforms of counters start, start + 1, ... into out; gammas is
    ``_gammas(out.size)``, z and t uint64 scratch of out's size."""
    np.add(gammas, np.uint64((seed + (start + 1) * _GAMMA) & _MASK), out=z)
    for shift, factor in _MIX:
        np.right_shift(z, shift, out=t)
        np.bitwise_xor(z, t, out=z)
        np.multiply(z, factor, out=z)
    np.right_shift(z, 31, out=t)
    np.bitwise_xor(z, t, out=z)
    np.right_shift(z, 11, out=z)
    np.add(z, 1.0, out=out)
    np.divide(out, _TWO53, out=out)


def _normals_chunks(seed, dst, lo, hi):
    """Box-Muller pairs lo..hi-1 into dst[2 lo:2 hi], one chunk at a time;
    the sine of the last pair is dropped where dst ends before it."""
    n = min(_PAIRS, hi - lo)
    gammas = _gammas(2 * n)
    z, t = np.empty((2, 2 * n), dtype=np.uint64)
    uniform = np.empty(2 * n)
    radius, angle, trig = np.empty((3, n))
    for start in range(lo, hi, _PAIRS):
        stop = min(start + _PAIRS, hi)
        k = stop - start
        u, r, a, s = uniform[:2 * k], radius[:k], angle[:k], trig[:k]
        _uniforms_into(seed, 2 * start, gammas[:2 * k], u, z[:2 * k],
                       t[:2 * k])
        np.log(u[0::2], out=r)
        np.multiply(-2.0, r, out=r)
        np.sqrt(r, out=r)
        np.multiply(2.0 * np.pi, u[1::2], out=a)
        even = dst[2 * start:2 * stop:2]
        odd = dst[2 * start + 1:2 * stop:2]
        np.cos(a, out=s)
        np.multiply(r, s, out=even)
        np.sin(a, out=s)
        np.multiply(r[:odd.size], s[:odd.size], out=odd)


def normal_tensor(seed, shape):
    """Standard-normal tensor, filled first-index-fastest (F-ordered);
    value i of the stream depends only on (seed, i)."""
    out = np.empty(tuple(int(n) for n in shape), order="F")
    kernel = partial(_normals_chunks, _check_seed(seed),
                     out.reshape(-1, order="F"))
    pairs = (out.size + 1) // 2
    if out.size < spectral._SERIAL_BELOW:
        kernel(0, pairs)
    else:
        spectral.run_slabs(kernel, pairs)
    return out
