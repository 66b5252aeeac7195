"""Nonlinear part of the CGL equations: pointwise evaluation and flows.

The nonlinearity acts pointwise in physical space, so its exact flow is a
scalar ODE solved per grid value. The cubic flow

    u(t) = exp(-(alpha3 + i beta3)/(2 alpha3) * log|1 - 2 alpha3 |u0|^2 t|) u0

and the quintic analog (with 4 alpha4 |u0|^4 t and denominator 4 alpha4)
degenerate to pure phase rotations as the real coefficient vanishes; the
branch switch sits at |alpha| < 1e-14. A vanishing argument of the log is
finite-time blow-up and raises DivergenceError, as does any non-finite
flow output; blow-up anywhere in the array is reported before non-finite
output anywhere.

Both flows are one power-law kernel (p = 2, 4) in real arithmetic: with
y = p alpha |u0|^p t and L = log1p(-y), the factor is the amplitude
exp(-L/p) times the rotation by -beta L/(p alpha), which is the complex
exponential above. The kernel walks the array's own memory, C- or
F-ordered (other strides are copied once), in fixed chunks of _CHUNK
entries through per-thread scratch, so no full-size temporary is made.
Arrays of at least 2^15 entries are split into one slab per usable CPU on
the worker pool of ``spectral``, whose workers run in the caller's numpy
error state; every entry is computed the same way whatever the split, so
the result does not depend on the thread count.
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
    "rk4_flow",
]

_KINDS = ("cubic", "cubic_quintic", "coupled_cubic_quintic")
_REAL_COEFF_FLOOR = 1e-14
# entries per pass of the flow kernel: a chunk's input, output and scratch
# (about 0.6 MiB) stay in cache, and numpy's per-call cost is small against
# the work of a chunk
_CHUNK = 1 << 13


class DivergenceError(RuntimeError):
    """Raised when a flow or a step produces blow-up or NaN/Inf values."""

    def __init__(self, reason, step=None):
        self.reason = reason
        self.step = step
        where = f" at step {step}" if step is not None else ""
        super().__init__(f"{reason}{where}")


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


def eval_g(spec, fields):
    """Pointwise nonlinearity per component, in physical space."""
    p = spec.params
    if len(fields) != spec.components:
        raise ValueError(f"expected {spec.components} components, "
                         f"got {len(fields)}")
    mods = [np.abs(u) ** 2 for u in fields]
    out = []
    for i, u in enumerate(fields):
        m = mods[i]
        g = p.cubic * m * u
        if spec.kind != "cubic":
            g = g + p.quintic * (m * m) * u
        if spec.kind == "coupled_cubic_quintic":
            g = g + p.alpha5 * mods[1 - i] * u
        out.append(g)
    return tuple(out)


def _check_finite(u, reason):
    if not np.all(np.isfinite(u)):
        raise DivergenceError(reason)
    return u


def cubic_flow(u0, t, params):
    """Exact flow of u' = (alpha3 + i beta3) |u|^2 u over time t."""
    return _power_law_flow(u0, t, params.alpha3, params.beta3, 2, "cubic")


def quintic_flow(u0, t, params):
    """Exact flow of u' = (alpha4 + i beta4) |u|^4 u over time t."""
    return _power_law_flow(u0, t, params.alpha4, params.beta4, 4, "quintic")


def _power_law_flow(u0, t, a, b, p, name):
    """Exact flow of u' = (a + i b) |u|^p u, chunk by chunk on slabs."""
    u0 = np.asarray(u0, dtype=complex)
    if abs(a) < _REAL_COEFF_FLOOR:
        return u0 * np.exp(1j * b * np.abs(u0) ** p * t)
    if not (u0.flags.c_contiguous or u0.flags.f_contiguous):
        u0 = u0.copy(order="K")
    out = np.empty_like(u0)
    kernel = partial(_flow_chunks, u0.ravel(order="K"), out.ravel(order="K"),
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
    """The power-law flow of src[lo:hi] into dst[lo:hi], _CHUNK at a time.

    Returns (blow-up seen, non-finite output seen). A chunk with blow-up
    (y >= 1) is left unwritten; NaN input is not blow-up but gives NaN
    output.
    """
    w, amp, trig = np.empty((3, _CHUNK))
    rot = np.empty(_CHUNK, dtype=complex)
    finite = np.empty(2 * _CHUNK, dtype=bool)
    blow_up = non_finite = False
    for start in range(lo, hi, _CHUNK):
        stop = min(start + _CHUNK, hi)
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


def rk4_flow(spec, fields, t):
    """One classical RK4 step of size t on the full nonlinearity.

    Used where no exact flow is available (quintic and coupled terms
    treated together); its O(t^5) one-step error keeps fourth-order
    splitting intact.
    """
    k1 = eval_g(spec, fields)
    k2 = eval_g(spec, tuple(u + 0.5 * t * k for u, k in zip(fields, k1)))
    k3 = eval_g(spec, tuple(u + 0.5 * t * k for u, k in zip(fields, k2)))
    k4 = eval_g(spec, tuple(u + t * k for u, k in zip(fields, k3)))
    out = tuple(u + (t / 6.0) * (a + 2.0 * b + 2.0 * c + d)
                for u, a, b, c, d in zip(fields, k1, k2, k3, k4))
    for u in out:
        _check_finite(u, "non-finite RK4 flow output")
    return out
