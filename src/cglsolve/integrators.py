"""Time integrators for the semidiscrete CGL systems.

All schemes advance the split form du/dt = K u + g(u). State is always a
tuple of component tensors (length 1 for scalar problems, 2 for the
coupled system), in the operator's own representation: grid values for
Kronecker-form operators, Fourier coefficients for symbol operators. The
Problem wrapper moves the pointwise nonlinearity through the transform
pair when needed.

Schemes are data (``SCHEMES``), run by two steppers. ``rk2``/``rk4`` are
Butcher tableaux on K u + g(u), and ``if2``/``if4`` the same tableaux in
Lawson form on g. ``strang``/``strang_3t`` are lists of (term, fraction
of tau) maps; ``split4``/``split4_3t`` add a coarse list for the
Richardson step (4/3) fine - (1/3) coarse.

Every linear combination of stages is one ``_lincomb`` call, which keeps
the bits of the chained whole-array expression. ``integrate`` rejects
non-finite initial fields and checks every step's state with
``all_finite``.
"""

import numbers
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np

from . import spectral
from .flows import (DivergenceError, all_finite, cubic_flow, eval_g,
                    quintic_flow)
from .spectral import dft_forward, dft_inverse

__all__ = ["Tableau", "Scheme", "SCHEMES", "Problem", "IntegrationResult",
           "integrate"]

# _lincomb runs its kernel on arrays of at least 32 MiB, the largest mmap
# threshold of glibc's malloc: every array that size is a fresh mapping
# whose pages must be faulted in, which the kernel's in-place output
# avoids. Below it the whole-array fold measured faster (CHANGES.md).
_KERNEL_BYTES = 1 << 25


@dataclass(frozen=True, eq=False)
class Tableau:
    """Explicit Butcher tableau: row i of ``a`` has i weights; nodes are
    the row sums. ``lawson`` runs it in integrating-factor form on g."""

    a: tuple
    b: tuple
    lawson: bool = False


_ONE, _HALF, _THIRD = Fraction(1), Fraction(1, 2), Fraction(1, 3)
_HEUN = Tableau(a=((), (_ONE,)), b=(_HALF, _HALF))
_RK4 = Tableau(a=((), (_HALF,), (0, _HALF), (0, 0, _ONE)),
               b=(_HALF * _THIRD, _THIRD, _THIRD, _HALF * _THIRD))


def _strang(fraction, *flows):
    """The Strang map over fraction * tau: half flows, K, flows reversed."""
    half = tuple((term, fraction / 2) for term in flows)
    return half + (("K", fraction),) + half[::-1]


@dataclass(frozen=True)
class Scheme:
    """A tableau, or a composition of maps with an optional coarse one."""

    name: str
    order: int
    tableau: Tableau = None
    maps: tuple = ()    # (term, fraction of tau), applied in order
    coarse: tuple = ()  # if given, the step is (4/3) maps - (1/3) coarse

    @property
    def fractions(self):
        """The exponential step fractions the cache must hold, ascending."""
        if self.tableau is None:
            found = {f for term, f in self.maps + self.coarse if term == "K"}
        else:
            found = {group[0] for row in _rows(self.tableau, 1.0)
                     for group in row}
        return tuple(sorted(found - {0, None}))


SCHEMES = {s.name: s for s in (
    Scheme("rk2", 2, tableau=_HEUN),
    Scheme("rk4", 4, tableau=_RK4),
    Scheme("strang", 2, maps=_strang(_ONE, "g")),
    Scheme("split4", 4,
           maps=(("g", _HALF / 2), ("K", _HALF), ("g", _HALF), ("K", _HALF),
                 ("g", _HALF / 2)),
           coarse=_strang(_ONE, "g")),
    Scheme("strang_3t", 2, maps=_strang(_ONE, "quintic", "cubic")),
    Scheme("split4_3t", 4, maps=2 * _strang(_HALF, "quintic", "cubic"),
           coarse=_strang(_ONE, "quintic", "cubic")),
    Scheme("if2", 2, tableau=replace(_HEUN, lawson=True)),
    Scheme("if4", 4, tableau=replace(_RK4, lawson=True)),
)}


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

    def flow(self, term, fields, t):
        """Subflow over time t: exact for "cubic" and "quintic" alone and
        for "g" of the cubic kind; else one ``rk4`` step on ``eval_g``."""
        phys = self.to_physical(fields)
        if term == "g" and self.nonlinear.kind != "cubic":
            phys = _run_tableau(_rows(_RK4, t),
                                partial(eval_g, self.nonlinear), None, phys)
        else:
            exact = quintic_flow if term == "quintic" else cubic_flow
            phys = tuple(exact(u, t, self.nonlinear.params) for u in phys)
        return self.from_physical(phys)

    def prepare(self, tau, scheme):
        terms = {term for term, _ in scheme.maps + scheme.coarse}
        if self.nonlinear.components > 1 and terms & {"cubic", "quintic"}:
            raise ValueError("exact cubic and quintic flows leave out the "
                             "coupled cross term")
        if scheme.fractions:
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


@lru_cache(maxsize=64)
def _rows(tableau, h):
    """Rows 2.. of a tableau for step h as groups (fraction, c, terms).

    Stage i is E(c_i) u + h sum_j a_ij E(c_i - c_j) k_j with E(f) =
    exp(f h K), E = 1 without ``lawson``; b is a last row with c = 1. A
    group sums the terms (coefficient, source) under one E (None for 0),
    stage values k[j] first, u = k[0] last; equal coefficients, as of one
    term, are applied after E as c. u's group, the largest E, is first.
    """
    nodes = [sum(row, Fraction(0)) for row in tableau.a] + [_ONE]
    rows = []
    for i, weights in enumerate(tableau.a[1:] + (tableau.b,), start=1):
        terms = [(nodes[i] - nodes[j], h * w.numerator / w.denominator, j + 1)
                 for j, w in enumerate(weights) if w]
        by_fraction = {}
        for fraction, coef, source in terms + [(nodes[i], 1, 0)]:
            key = fraction if tableau.lawson else 0
            by_fraction.setdefault(key, []).append((coef, source))
        groups = []
        for fraction in sorted(by_fraction, reverse=True):
            terms = by_fraction[fraction]
            c = terms[0][0] if len({coef for coef, _ in terms}) == 1 else 1
            terms = tuple((coef / c, source) for coef, source in terms)
            groups.append((fraction or None, c, terms))
        rows.append(tuple(groups))
    return tuple(rows)


def _run_tableau(rows, f, expk, u):
    """One step from u; f(U) is a stage's value. A stage's input is
    dropped once f has read it."""
    k = [u, f(u)]
    for row in rows[:-1]:
        k.append(f(_row_sum(row, k, expk, False)))
    return _row_sum(rows[-1], k, expk, True)


def _row_sum(groups, k, expk, last):
    """A row's sum, written into its first group's value unless that is u;
    in the last row each group's sum goes into its first stage value."""
    parts = []
    for fraction, c, terms in groups:
        if len(terms) == 1:
            x = k[terms[0][1]]
        else:
            xs = [(coef, k[source]) for coef, source in terms]
            x = _lincomb(*xs, out=xs[0][1] if last else None)
        if fraction is not None:
            x = expk(fraction, x)
        parts.append((c, x))
    c, x = parts[0]
    if len(parts) == 1 and c == 1:
        return x
    return _lincomb(*parts, out=None if x is k[0] else x)


def _compose(p, maps, tau, u):
    for term, f in maps:
        t = tau * f.numerator / f.denominator
        u = p.expk(f, u) if term == "K" else p.flow(term, u, t)
    return u


def _richardson(p, scheme, tau, u):
    coarse = _compose(p, scheme.coarse, tau, u)
    fine = _compose(p, scheme.maps, tau, u)
    return _lincomb((4.0 / 3.0, fine), (-1.0 / 3.0, coarse), out=fine)


def _stepper(p, scheme, tau):
    """u -> the scheme's step of size tau; a tableau's rows are built here."""
    if scheme.tableau is not None:
        f = p.g if scheme.tableau.lawson else partial(_rhs, p)
        return partial(_run_tableau, _rows(scheme.tableau, tau), f, p.expk)
    if scheme.coarse:
        return partial(_richardson, p, scheme, tau)
    return partial(_compose, p, scheme.maps, tau)


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
    if (not isinstance(steps, numbers.Integral) or isinstance(steps, bool)
            or steps < 1):
        raise ValueError(f"steps must be an integer >= 1, got {steps!r}")
    if not np.isfinite(t_final) or t_final <= 0:
        raise ValueError("t_final must be positive and finite")
    scheme = SCHEMES[scheme_name]
    tau = t_final / steps
    fields = tuple(np.asarray(u, dtype=complex) for u in fields)
    if not all_finite(fields):
        raise ValueError("initial fields must be finite")
    problem.prepare(tau, scheme)
    step = _stepper(problem, scheme, tau)
    wanted = set(int(k) for k in snapshot_steps)

    start = time.perf_counter()
    for k in range(1, steps + 1):
        reason = ""
        try:
            # overflow on a diverging trajectory is reported structurally,
            # not as a warning
            with np.errstate(over="ignore", invalid="ignore"):
                fields = step(fields)
        except DivergenceError as err:
            reason = err.reason
        if reason or not all_finite(fields):
            seconds = time.perf_counter() - start
            return IntegrationResult(fields, steps, tau, seconds,
                                     diverged=True, diverged_at=k,
                                     reason=reason or "non-finite state")
        if k in wanted and on_snapshot is not None:
            on_snapshot(k, k * tau, fields)
    seconds = time.perf_counter() - start
    return IntegrationResult(fields, steps, tau, seconds)
