"""The nonlinearity g and its exact flows, pointwise in physical space.

``eval_g`` evaluates g per component. ``cubic_flow``/``quintic_flow``
solve u' = (a + i b) |u|^p u exactly per grid value (p = 2, 4); for
|a| < 1e-14 the flow is a pure rotation. Finite-time blow-up and
non-finite output raise DivergenceError, blow-up anywhere before
non-finite output anywhere. Where a kind has no exact flow, a scheme's
"g" subflow is one ``rk4`` step on ``eval_g`` (``integrators._lower``).

``eval_g`` and both flows take a keyword-only ``out`` that may be their
input, and return it. Their bits do not depend on the thread count.
``all_finite`` makes no full-size temporary.
"""

from functools import partial

import numpy as np

from . import spectral
from .params import CglParameters

__all__ = [
    "NonlinearSpec",
    "DivergenceError",
    "eval_g",
    "cubic_flow",
    "quintic_flow",
    "all_finite",
]

_KINDS = ("cubic", "cubic_quintic", "coupled_cubic_quintic")
_REAL_COEFF_FLOOR = 1e-14
# real values per pass of all_finite, through one 64 KiB boolean buffer
# (CHANGES.md, "One workspace per integrate call")
_FINITE_CHUNK = 1 << 16


class DivergenceError(RuntimeError):
    """Raised when a flow or a step produces blow-up or NaN/Inf values."""

    def __init__(self, reason):
        self.reason = reason
        super().__init__(reason)


class NonlinearSpec:
    """Which nonlinear terms are active, with their coefficients; the
    advection alpha0 and the cross-coupling alpha5 need the coupled kind
    (ValueError)."""

    def __init__(self, kind, params):
        if kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
        if not isinstance(params, CglParameters):
            raise ValueError("params must be CglParameters")
        if kind == "cubic" and (params.alpha4 != 0.0 or params.beta4 != 0.0):
            raise ValueError("cubic kind requires alpha4 = beta4 = 0")
        if kind != "coupled_cubic_quintic" and params.alpha5 != 0.0:
            raise ValueError("cross-coupling alpha5 needs the coupled kind")
        if kind != "coupled_cubic_quintic" and params.alpha0 != 0.0:
            raise ValueError("advection alpha0 needs the coupled kind")
        self.kind = kind
        self.params = params

    @property
    def components(self):
        return 2 if self.kind == "coupled_cubic_quintic" else 1


def eval_g(spec, fields, *, out=None):
    """g per component: (fr + i fi) u_i with m_i = |u_i|^2,
    fr = m_i (alpha3 + alpha4 m_i) + alpha5 m_j and fi = m_i (beta3 +
    beta4 m_i), the quintic and cross terms only for the kinds that have
    them. ``out`` holds one complex array per component; ValueError for a
    wrong component count or shape.
    """
    if len(fields) != spec.components:
        raise ValueError(f"expected {spec.components} components, "
                         f"got {len(fields)}")
    fields = [np.asarray(u, dtype=complex) for u in fields]
    shape = fields[0].shape
    if any(u.shape != shape for u in fields):
        raise ValueError("all components must share a shape")
    if out is not None:
        if len(out) != len(fields):
            raise ValueError(f"expected {len(fields)} out arrays, "
                             f"got {len(out)}")
        for v in out:
            spectral.check_out(v, shape)
    if fields[0].size < spectral._SERIAL_BELOW:
        return _g_whole(spec.kind, spec.params, fields, out)
    order = spectral.memory_order(fields, out or ())
    if out is None:
        out = tuple(np.empty(shape, complex, order=order) for _ in fields)
    kernel = partial(_g_chunks, [np.ravel(u, order) for u in fields],
                     [v.ravel(order) for v in out], spec.kind, spec.params)
    spectral.run_slabs(kernel, out[0].size, out[0].size)
    return out


def _g_whole(kind, p, fields, out):
    """eval_g's arithmetic on whole arrays, in complex form: fewer numpy
    calls below _SERIAL_BELOW entries, and the kernel's bits for finite
    values, since (c4 m + c3) m with a real m has its real and imaginary
    parts. Every modulus is taken before any output is written, so
    ``out`` may be ``fields``."""
    mods = [np.square(u.real) + np.square(u.imag) for u in fields]
    result = []
    for i, u in enumerate(fields):
        m = mods[i]
        if kind == "cubic":
            f = p.cubic * m
        else:
            f = (p.quintic * m + p.cubic) * m
        if kind == "coupled_cubic_quintic":
            f = f + p.alpha5 * mods[1 - i]
        result.append(np.multiply(u, f, out=None if out is None else out[i]))
    return tuple(result) if out is None else out


def _g_chunks(src, dst, kind, p, lo, hi):
    """eval_g of src[c][lo:hi] into dst[c][lo:hi], one chunk at a time."""
    n = min(spectral._CHUNK, hi - lo)
    mods = np.empty((len(src), n))
    tmp = np.empty(n)
    factor = np.empty(n, dtype=complex)
    quintic = kind != "cubic"
    coupled = kind == "coupled_cubic_quintic"
    for start in range(lo, hi, spectral._CHUNK):
        stop = min(start + spectral._CHUNK, hi)
        k = stop - start
        t, f = tmp[:k], factor[:k]
        us = [u[start:stop] for u in src]
        for u, m in zip(us, mods):
            np.square(u.real, out=m[:k])
            np.square(u.imag, out=t)
            np.add(m[:k], t, out=m[:k])
        for i, u in enumerate(us):
            m = mods[i, :k]
            for part, c3, c4 in ((f.real, p.alpha3, p.alpha4),
                                 (f.imag, p.beta3, p.beta4)):
                if quintic:
                    np.multiply(m, c4, out=t)
                    np.add(t, c3, out=t)
                    np.multiply(t, m, out=part)
                else:
                    np.multiply(m, c3, out=part)
            if coupled:
                np.multiply(mods[1 - i, :k], p.alpha5, out=t)
                np.add(f.real, t, out=f.real)
            np.multiply(u, f, out=dst[i][start:stop])


def all_finite(fields):
    """Whether every entry of every array is finite; each array is read
    in its own memory order, _FINITE_CHUNK real values at a time."""
    for u in fields:
        flat = np.ravel(u, order="K")
        values = flat.view(flat.real.dtype)
        ok = np.empty(min(values.size, _FINITE_CHUNK), dtype=bool)
        for start in range(0, values.size, _FINITE_CHUNK):
            part = values[start:start + _FINITE_CHUNK]
            if not np.isfinite(part, out=ok[:part.size]).all():
                return False
    return True


def cubic_flow(u0, t, params, *, out=None):
    """Exact flow of u' = (alpha3 + i beta3) |u|^2 u over time t. ``out``
    has u0's shape; after a DivergenceError its contents are undefined."""
    return _power_law_flow(u0, t, params.alpha3, params.beta3, 2, "cubic",
                           out)


def quintic_flow(u0, t, params, *, out=None):
    """Exact flow of u' = (alpha4 + i beta4) |u|^4 u over time t;
    ``out`` as for ``cubic_flow``."""
    return _power_law_flow(u0, t, params.alpha4, params.beta4, 4, "quintic",
                           out)


def _power_law_flow(u0, t, a, b, p, name, out):
    """Exact flow of u' = (a + i b) |u|^p u, chunk by chunk on slabs.

    With y = p a |u0|^p t and L = log1p(-y), the factor is the amplitude
    exp(-L/p) times the rotation by phi = -b L/(p a); y >= 1 is blow-up.
    """
    u0 = np.asarray(u0, dtype=complex)
    spectral.check_out(out, u0.shape)
    if abs(a) < _REAL_COEFF_FLOOR:
        out = np.multiply(u0, np.exp(1j * b * np.abs(u0) ** p * t), out=out)
        if not all_finite((out,)):
            raise DivergenceError(f"non-finite {name} flow output")
        return out
    order = spectral.memory_order((u0,), (out,))
    if out is None:
        out = np.empty(u0.shape, complex, order=order)
    kernel = partial(_flow_chunks, np.ravel(u0, order), out.ravel(order),
                     p, -(p * a * t), -1.0 / p, -b / (2.0 * p * a))
    flags = spectral.run_slabs(kernel, u0.size, u0.size)
    if any(blow_up for blow_up, _ in flags):
        raise DivergenceError(f"finite-time blow-up in {name} flow")
    if any(non_finite for _, non_finite in flags):
        raise DivergenceError(f"non-finite {name} flow output")
    return out


def _flow_chunks(src, dst, p, neg_pat, amp_coeff, half_phase_coeff, lo, hi):
    """The power-law flow of src[lo:hi] into dst[lo:hi], spectral._CHUNK
    entries at a time; returns (blow-up seen, non-finite output seen). A
    chunk with blow-up is left unwritten; NaN input is not blow-up but
    gives NaN output. The factor is c ((1 - T^2) + 2iT) with T =
    tan(phi/2) and c = amp/(1 + T^2); dst takes u c, then the rotation,
    which is built in scratch, since dst may be src. Two scratch arrays
    per call, 768 KiB at 2^15 entries."""
    n = min(spectral._CHUNK, hi - lo)
    rot = np.empty(n, dtype=complex)
    # rot's bytes as floats: amp and den, its two halves, until rot is built
    halves = rot.view(np.float64)
    w = np.empty(n)
    blow_up = non_finite = False
    for start in range(lo, hi, spectral._CHUNK):
        stop = min(start + spectral._CHUNK, hi)
        k = stop - start
        u, y, r = src[start:stop], w[:k], rot[:k]
        amp, den = halves[:k], halves[k:2 * k]
        # y = -p a t |u|^p, with |u|^p as np.abs(u) ** p
        np.abs(u, out=y)
        for _ in range(p // 2):
            np.square(y, out=y)
        np.multiply(y, neg_pat, out=y)
        if np.less_equal(y, -1.0, out=amp.view(bool)[:k]).any():
            blow_up = True
            continue
        log = np.log1p(y, out=y)
        np.multiply(log, amp_coeff, out=amp)
        np.exp(amp, out=amp)
        tan = np.multiply(log, half_phase_coeff, out=y)
        np.tan(tan, out=tan)
        np.square(tan, out=den)
        np.add(den, 1.0, out=den)
        c = np.divide(amp, den, out=amp)
        v = dst[start:stop]
        np.multiply(u.real, c, out=v.real)
        np.multiply(u.imag, c, out=v.imag)
        np.square(tan, out=r.real)
        np.subtract(1.0, r.real, out=r.real)
        np.add(tan, tan, out=r.imag)
        np.multiply(v, r, out=v)
        ok = w.view(bool)[:2 * k]
        np.isfinite(v.view(np.float64), out=ok)
        non_finite = non_finite or not ok.all()
    return blow_up, non_finite
