"""Nonlinear part of the CGL equations: pointwise evaluation and flows.

The nonlinearity acts pointwise in physical space, so its exact flow is a
scalar ODE solved per grid value. The cubic flow

    u(t) = exp(-(alpha3 + i beta3)/(2 alpha3) * log|1 - 2 alpha3 |u0|^2 t|) u0

and the quintic analog (with 4 alpha4 |u0|^4 t and denominator 4 alpha4)
degenerate to pure phase rotations as the real coefficient vanishes; the
branch switch sits at |alpha| < 1e-14. A vanishing argument of the log is
finite-time blow-up and raises DivergenceError, as does any non-finite
flow output; blow-up anywhere in the array is reported before non-finite
output anywhere. Where there is no exact flow, ``integrators.Problem.flow``
runs one step of the ``rk4`` tableau on ``eval_g``.

The nonlinearity ``eval_g`` and both flows run as chunked kernels in real
arithmetic. Both flows are one power-law kernel (p = 2, 4): with
y = p alpha |u0|^p t and L = log1p(-y), the factor is the amplitude
exp(-L/p) times the rotation by -beta L/(p alpha), which is the complex
exponential above. ``eval_g`` forms (fr + i fi) u from m = re^2 + im^2
per component and multiplies once. The kernels walk the arrays' own
memory, C- or F-ordered (``spectral.memory_order``; other strides are
copied once), in fixed chunks of ``spectral._CHUNK`` entries through
per-thread scratch, so no full-size temporary is made. Arrays of at
least 2^15 entries are split into one slab per usable CPU on the worker
pool of ``spectral``, whose workers run in the caller's numpy error
state; every entry is computed the same way whatever the split, so the
result does not depend on the thread count. Smaller ``eval_g`` inputs
take the same arithmetic as whole-array expressions. ``eval_g`` and both
flows take a keyword-only ``out`` that may be their input: each chunk is
read before it is written, so the steppers run them in place in arrays
the step owns. The finite check ``all_finite`` is serial: it reads each
array in 2^16-value chunks through one 64 KiB boolean buffer instead of
making a full-size boolean array (2 MiB at 128^3). Timed on single
arrays (medians of 30), it took 2.0-2.3 against 5.7-7.0 ms at 128^3 in
C and F order, 0.28 against 0.40-0.44 ms at 64^3 and 0.22 against
0.35-0.43 ms at 700x350; a slab-threaded check with 8,192-entry chunks
had lost on 128^3 FD states and on 64^3 and 700x350 ones.
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
# real values per pass of all_finite: a 64 KiB boolean buffer
_FINITE_CHUNK = 1 << 16


class DivergenceError(RuntimeError):
    """Raised when a flow or a step produces blow-up or NaN/Inf values."""

    def __init__(self, reason):
        self.reason = reason
        super().__init__(reason)


class NonlinearSpec:
    """Which nonlinear terms are active, with their coefficients."""

    def __init__(self, kind, params):
        if kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
        if not isinstance(params, CglParameters):
            raise TypeError("params must be CglParameters")
        if kind == "cubic" and (params.alpha4 != 0.0 or params.beta4 != 0.0):
            raise ValueError("cubic kind requires alpha4 = beta4 = 0")
        if kind != "coupled_cubic_quintic" and params.alpha5 != 0.0:
            raise ValueError("cross-coupling alpha5 needs the coupled kind")
        self.kind = kind
        self.params = params

    @property
    def components(self):
        return 2 if self.kind == "coupled_cubic_quintic" else 1


def eval_g(spec, fields, *, out=None):
    """Pointwise nonlinearity per component, in physical space.

    Component i is (fr + i fi) u_i with m_i = |u_i|^2,
    fr = m_i (alpha3 + alpha4 m_i) + alpha5 m_j and fi = m_i (beta3 +
    beta4 m_i), the quintic and cross terms only for the kinds that have
    them. From 2^15 entries one kernel walks the components' shared memory
    order chunk by chunk, one slab per usable CPU, and makes one output
    each. Smaller arrays take the same arithmetic as whole-array complex
    expressions, which cost fewer numpy calls there. With ``out``, one
    complex array per component (which may be ``fields`` itself), the
    values are written there and ``out`` is returned.
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
    spectral.run_slabs(kernel, out[0].size)
    return out


def _g_whole(kind, p, fields, out):
    """eval_g's arithmetic on whole arrays, in complex form.

    (c4 m + c3) m with a real m has the kernel's real and imaginary parts,
    so the bits match the kernel's for finite values. Every modulus is
    taken before any output is written, so ``out`` may be ``fields``.
    """
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
    """Whether every entry of every array is finite.

    Each array is read as real values in its own memory order (other
    strides are copied once), _FINITE_CHUNK at a time through one small
    boolean buffer, so no full-size temporary is made.
    """
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
    """Exact flow of u' = (alpha3 + i beta3) |u|^2 u over time t.

    With ``out`` (a complex array of u0's shape, which may be u0 itself)
    the result is written there and ``out`` is returned; after a
    DivergenceError its contents are undefined.
    """
    return _power_law_flow(u0, t, params.alpha3, params.beta3, 2, "cubic",
                           out)


def quintic_flow(u0, t, params, *, out=None):
    """Exact flow of u' = (alpha4 + i beta4) |u|^4 u over time t.

    ``out`` as for ``cubic_flow``.
    """
    return _power_law_flow(u0, t, params.alpha4, params.beta4, 4, "quintic",
                           out)


def _power_law_flow(u0, t, a, b, p, name, out):
    """Exact flow of u' = (a + i b) |u|^p u, chunk by chunk on slabs."""
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
                     p, p * a, t, -1.0 / p, -(b / (p * a)))
    if u0.size < spectral._SERIAL_BELOW:
        flags = [kernel(0, u0.size)]
    else:
        flags = spectral.run_slabs(kernel, u0.size)
    if any(blow_up for blow_up, _ in flags):
        raise DivergenceError(f"finite-time blow-up in {name} flow")
    if any(non_finite for _, non_finite in flags):
        raise DivergenceError(f"non-finite {name} flow output")
    return out


def _flow_chunks(src, dst, p, pa, t, amp_coeff, phase_coeff, lo, hi):
    """The power-law flow of src[lo:hi] into dst[lo:hi], chunk by chunk.

    Returns (blow-up seen, non-finite output seen). A chunk with blow-up
    (y >= 1) is left unwritten; NaN input is not blow-up but gives NaN
    output.
    """
    w, amp, trig = np.empty((3, spectral._CHUNK))
    rot = np.empty(spectral._CHUNK, dtype=complex)
    finite = np.empty(2 * spectral._CHUNK, dtype=bool)
    blow_up = non_finite = False
    for start in range(lo, hi, spectral._CHUNK):
        stop = min(start + spectral._CHUNK, hi)
        k = stop - start
        u, y, a, s, r = src[start:stop], w[:k], amp[:k], trig[:k], rot[:k]
        # y = p a |u|^p t, with |u|^p as np.abs(u) ** p
        np.abs(u, out=y)
        for _ in range(p // 2):
            np.square(y, out=y)
        np.multiply(y, pa, out=y)
        np.multiply(y, t, out=y)
        if (y >= 1.0).any():
            blow_up = True
            continue
        np.negative(y, out=y)
        log = np.log1p(y, out=y)
        np.multiply(log, amp_coeff, out=a)
        np.exp(a, out=a)
        phase = np.multiply(log, phase_coeff, out=y)
        np.sin(phase, out=s)
        np.multiply(s, a, out=r.imag)
        np.cos(phase, out=s)
        np.multiply(s, a, out=r.real)
        v = dst[start:stop]
        np.multiply(u, r, out=v)
        ok = finite[:2 * k]
        np.isfinite(v.view(np.float64), out=ok)
        non_finite = non_finite or not ok.all()
    return blow_up, non_finite

