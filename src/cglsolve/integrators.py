"""Time integrators for the semidiscrete CGL systems.

All schemes advance the split form du/dt = K u + g(u). State is always a
tuple of component tensors (length 1 for scalar problems, 2 for the
coupled system), in the operator's own representation: grid values for
Kronecker-form operators, Fourier coefficients for symbol operators. The
Problem wrapper moves the pointwise nonlinearity through the transform
pair when needed.

Schemes:

    rk2, rk4            explicit Runge-Kutta on the full right-hand side
    strang, split4      splitting with the exact cubic flow (cubic kind)
                        or a single RK4 substep on g otherwise
    strang_3t, split4_3t three-term splitting: exact cubic and quintic
                        flows composed separately
    if2, if4            Lawson (integrating factor) schemes

The fourth-order splittings use the Richardson combination
(4/3) S_{tau/2}^2 - (1/3) S_tau of the Strang map S.

Every linear combination of stages is one ``_lincomb`` call, folded in
the order of the chained whole-array expression so the bits match it.
Arrays of 32 MiB or more (128^3 complex) run it as one chunked,
slab-threaded pass with one output, written into a stage array the step
made and reads no more where there is one. ``integrate`` rejects
non-finite initial fields and checks every step's state with
``all_finite``.
"""

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from . import spectral
from .flows import (DivergenceError, all_finite, cubic_flow, eval_g,
                    quintic_flow, rk4_flow)
from .spectral import dft_forward, dft_inverse

__all__ = ["Scheme", "SCHEMES", "Problem", "IntegrationResult", "integrate"]

_HALF = Fraction(1, 2)
_ONE = Fraction(1)
# _lincomb runs its kernel on arrays of at least 32 MiB, the largest mmap
# threshold of glibc's malloc: every array that size is a fresh mapping
# whose pages must be faulted in, which the kernel's in-place output
# avoids. Smaller arrays come from the malloc heap, where the whole-array
# fold measured better: on a 2-vCPU VM a 64^3 split4_3t step took about
# 2,700 minor page faults and 181 ms with it, 4,800 and 191 ms with the
# kernel. A whole-array fold that adds into its own first sum and reuses
# one scratch for the scaled terms lost too: in 10 of 10 benchmark pairs
# at 64^3 (split4_3t) the snapshot output after the steps took 30% longer.
_KERNEL_BYTES = 1 << 25


@dataclass(frozen=True)
class Scheme:
    name: str
    order: int
    fractions: tuple  # exponential step fractions the cache must hold
    three_term: bool = False

    @property
    def uses_exponentials(self):
        return bool(self.fractions)


SCHEMES = {
    "rk2": Scheme("rk2", 2, ()),
    "rk4": Scheme("rk4", 4, ()),
    "strang": Scheme("strang", 2, (_ONE,)),
    "split4": Scheme("split4", 4, (_ONE, _HALF)),
    "strang_3t": Scheme("strang_3t", 2, (_ONE,), three_term=True),
    "split4_3t": Scheme("split4_3t", 4, (_ONE, _HALF), three_term=True),
    "if2": Scheme("if2", 2, (_ONE,)),
    "if4": Scheme("if4", 4, (_HALF, _ONE)),
}


class Problem:
    """Linear operator + nonlinearity, with representation-aware wrappers."""

    def __init__(self, operator, nonlinear):
        blocks = getattr(operator, "blocks", None)
        if nonlinear.components > 1:
            if blocks is None or len(blocks) != nonlinear.components:
                raise ValueError("coupled nonlinearity needs a block operator "
                                 "with one block per component")
        elif blocks is not None:
            raise ValueError("scalar nonlinearity takes a plain operator")
        self.operator = operator
        self.nonlinear = nonlinear
        self.fourier = operator.representation == "fourier"

    # -- representation plumbing -------------------------------------
    def to_physical(self, fields):
        if not self.fourier:
            return fields
        return tuple(dft_inverse(u) for u in fields)

    def from_physical(self, fields):
        if not self.fourier:
            return fields
        return tuple(dft_forward(u) for u in fields)

    # -- pieces the steppers use -------------------------------------
    def lin(self, fields):
        out = self.operator.apply(fields if self.nonlinear.components > 1
                                  else fields[0])
        return out if isinstance(out, tuple) else (out,)

    def expk(self, fraction, fields):
        out = self.operator.exp_apply(
            fraction, fields if self.nonlinear.components > 1 else fields[0])
        return out if isinstance(out, tuple) else (out,)

    def g(self, fields):
        return self.from_physical(eval_g(self.nonlinear,
                                         self.to_physical(fields)))

    def flow(self, fields, t):
        """Nonlinear subflow: exact for the cubic kind, RK4 substep else."""
        phys = self.to_physical(fields)
        if self.nonlinear.kind == "cubic":
            phys = tuple(cubic_flow(u, t, self.nonlinear.params) for u in phys)
        else:
            phys = rk4_flow(self.nonlinear, phys, t)
        return self.from_physical(phys)

    def flow_cubic(self, fields, t):
        phys = self.to_physical(fields)
        phys = tuple(cubic_flow(u, t, self.nonlinear.params) for u in phys)
        return self.from_physical(phys)

    def flow_quintic(self, fields, t):
        phys = self.to_physical(fields)
        phys = tuple(quintic_flow(u, t, self.nonlinear.params) for u in phys)
        return self.from_physical(phys)

    def prepare(self, tau, scheme):
        if scheme.three_term and self.nonlinear.kind == "coupled_cubic_quintic":
            raise ValueError("three-term splitting has no exact flow for "
                             "the coupled cross term")
        if scheme.uses_exponentials:
            self.operator.prepare(tau, scheme.fractions)


def _lincomb(*terms, out=None):
    """Per component, the sum of c * x over the (c, x) terms, in one pass.

    Terms fold left to right, acc = c * x + acc from the first term, and a
    coefficient of 1 adds its term as it is, so the bits are those of the
    chained whole-array expressions, which arrays under _KERNEL_BYTES
    take. Larger ones run a kernel over the components' memory order,
    _CHUNK entries at a time with per-thread scratch, one slab per usable
    CPU. There ``out`` may be the first term's arrays, if the step made
    them and reads them no more; the result is written into them instead
    of a new array. It is never the caller's state or a cached
    exponential.
    """
    result = []
    for i in range(len(terms[0][1])):
        c, x = terms[0]
        x = x[i]
        if x.nbytes < _KERNEL_BYTES:
            acc = x if c == 1 else c * x
            for c, y in terms[1:]:
                y = y[i]
                acc = (y if c == 1 else c * y) + acc
        else:
            acc = _combine([c for c, _ in terms], [y[i] for _, y in terms],
                           None if out is None else out[i])
        result.append(acc)
    return tuple(result)


def _combine(coefs, xs, out):
    """The kernel path of _lincomb for one component."""
    order = spectral.memory_order(xs)
    if out is None or not out.flags[order + "_CONTIGUOUS"]:
        out = np.empty(xs[0].shape, np.result_type(*xs), order=order)
    kernel = partial(_lincomb_chunks, coefs, [np.ravel(x, order) for x in xs],
                     out.ravel(order), out is xs[0])
    spectral.run_slabs(kernel, out.size)
    return out


def _lincomb_chunks(coefs, srcs, dst, in_place, lo, hi):
    """The fold of _lincomb over srcs[j][lo:hi] into dst[lo:hi]."""
    tmp = np.empty(min(spectral._CHUNK, hi - lo), dst.dtype)
    for start in range(lo, hi, spectral._CHUNK):
        stop = min(start + spectral._CHUNK, hi)
        acc, t = dst[start:stop], tmp[:stop - start]
        if coefs[0] != 1:
            np.multiply(coefs[0], srcs[0][start:stop], out=acc)
        elif not in_place:
            np.copyto(acc, srcs[0][start:stop])
        for c, x in zip(coefs[1:], srcs[1:]):
            x = x[start:stop]
            if c != 1:
                x = np.multiply(c, x, out=t)
            np.add(x, acc, out=acc)


def _rhs(p, u):
    lin = p.lin(u)
    return _lincomb((1, lin), (1, p.g(u)), out=lin)


def _step_rk2(p, u, tau):
    f1 = _rhs(p, u)
    f2 = _rhs(p, _lincomb((tau, f1), (1, u)))
    f12 = _lincomb((1, f1), (1, f2), out=f1)
    return _lincomb((0.5 * tau, f12), (1, u), out=f12)


def _step_rk4(p, u, tau):
    f1 = _rhs(p, u)
    f2 = _rhs(p, _lincomb((0.5 * tau, f1), (1, u)))
    f3 = _rhs(p, _lincomb((0.5 * tau, f2), (1, u)))
    f4 = _rhs(p, _lincomb((tau, f3), (1, u)))
    return _lincomb((tau / 6.0, f1), (tau / 3.0, f2), (tau / 3.0, f3),
                    (tau / 6.0, f4), (1, u), out=f1)


def _step_strang(p, u, tau):
    v = p.flow(u, 0.5 * tau)
    v = p.expk(_ONE, v)
    return p.flow(v, 0.5 * tau)


def _step_split4(p, u, tau):
    # Richardson pairing of the Strang map, middle flows merged
    coarse = p.flow(p.expk(_ONE, p.flow(u, 0.5 * tau)), 0.5 * tau)
    fine = p.flow(u, 0.25 * tau)
    fine = p.expk(_HALF, fine)
    fine = p.flow(fine, 0.5 * tau)
    fine = p.expk(_HALF, fine)
    fine = p.flow(fine, 0.25 * tau)
    return _lincomb((4.0 / 3.0, fine), (-1.0 / 3.0, coarse), out=fine)


def _strang_three_term(p, u, tau, fraction):
    t = float(fraction) * tau
    v = p.flow_quintic(u, 0.5 * t)
    v = p.flow_cubic(v, 0.5 * t)
    v = p.expk(fraction, v)
    v = p.flow_cubic(v, 0.5 * t)
    return p.flow_quintic(v, 0.5 * t)


def _step_strang_3t(p, u, tau):
    return _strang_three_term(p, u, tau, _ONE)


def _step_split4_3t(p, u, tau):
    coarse = _strang_three_term(p, u, tau, _ONE)
    fine = _strang_three_term(p, u, tau, _HALF)
    fine = _strang_three_term(p, fine, tau, _HALF)
    return _lincomb((4.0 / 3.0, fine), (-1.0 / 3.0, coarse), out=fine)


def _step_if2(p, u, tau):
    g1 = p.g(u)
    u2 = p.expk(_ONE, _lincomb((tau, g1), (1, u)))
    out = p.expk(_ONE, _lincomb((0.5 * tau, g1), (1, u), out=g1))
    return _lincomb((1, out), (0.5 * tau, p.g(u2)), out=out)


def _step_if4(p, u, tau):
    g1 = p.g(u)
    # the second stage is not kept: freed here, it is not alive at the
    # final combination, where the step's memory use peaks
    g2 = p.g(p.expk(_HALF, _lincomb((0.5 * tau, g1), (1, u))))
    u3 = p.expk(_HALF, u)
    u3 = _lincomb((1, u3), (0.5 * tau, g2), out=u3)
    g3 = p.g(u3)
    u4 = p.expk(_ONE, u)
    u4 = _lincomb((1, u4), (tau, p.expk(_HALF, g3)), out=u4)
    g4 = p.g(u4)
    out = p.expk(_ONE, _lincomb((tau / 6.0, g1), (1, u), out=g1))
    g23 = p.expk(_HALF, _lincomb((1, g2), (1, g3), out=g2))
    return _lincomb((1, out), (tau / 3.0, g23), (tau / 6.0, g4), out=out)


_STEPPERS = {
    "rk2": _step_rk2,
    "rk4": _step_rk4,
    "strang": _step_strang,
    "split4": _step_split4,
    "strang_3t": _step_strang_3t,
    "split4_3t": _step_split4_3t,
    "if2": _step_if2,
    "if4": _step_if4,
}


@dataclass
class IntegrationResult:
    fields: tuple
    steps: int
    tau: float
    seconds: float
    diverged: bool = False
    diverged_at: int = 0
    reason: str = ""


def integrate(problem, scheme_name, fields, t_final, steps,
              snapshot_steps=(), on_snapshot=None):
    """March `steps` uniform steps of the named scheme to t_final.

    Exponential caches are built before the loop; the reported seconds
    cover the stepping loop only. A NaN/Inf state or a flow blow-up stops
    the run and is reported through the result, with the offending step
    index (1-based).
    """
    if scheme_name not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme_name!r}; "
                         f"choose from {sorted(SCHEMES)}")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not np.isfinite(t_final) or t_final <= 0:
        raise ValueError("t_final must be positive and finite")
    scheme = SCHEMES[scheme_name]
    tau = t_final / steps
    fields = tuple(np.asarray(u, dtype=complex) for u in fields)
    if not all_finite(fields):
        raise ValueError("initial fields must be finite")
    problem.prepare(tau, scheme)
    step_fn = _STEPPERS[scheme_name]
    wanted = set(int(k) for k in snapshot_steps)

    start = time.perf_counter()
    for k in range(1, steps + 1):
        try:
            # overflow on a diverging trajectory is reported structurally,
            # not as a warning
            with np.errstate(over="ignore", invalid="ignore"):
                fields = step_fn(problem, fields, tau)
        except DivergenceError as err:
            seconds = time.perf_counter() - start
            return IntegrationResult(fields, steps, tau, seconds,
                                     diverged=True, diverged_at=k,
                                     reason=err.reason)
        if not all_finite(fields):
            seconds = time.perf_counter() - start
            return IntegrationResult(fields, steps, tau, seconds,
                                     diverged=True, diverged_at=k,
                                     reason="non-finite state")
        if k in wanted and on_snapshot is not None:
            on_snapshot(k, k * tau, fields)
    seconds = time.perf_counter() - start
    return IntegrationResult(fields, steps, tau, seconds)
