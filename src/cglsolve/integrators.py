"""Time integrators: schemes as data, two steppers, and ``integrate``.

Every scheme advances du/dt = K u + g(u). A state is a tuple with one
array per component, in the operator's representation: grid values for
Kronecker operators, Fourier coefficients for symbol operators.
``SCHEMES`` maps each name to its ``Scheme``: a ``Tableau``, or map
lists with an optional coarse list for a Richardson step.

``integrate`` never writes an array the caller holds: the initial state,
the prepared exponentials, or a state a step returned. It reports
divergence (a DivergenceError or a non-finite state) with the failing
step and the last finite state. Runs on one problem may nest, and their
bits do not depend on the thread count.
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
from .linalg import ExponentialOverflowError
from .operators import BlockOperator
from .spectral import dft_forward, dft_inverse

__all__ = ["Tableau", "Scheme", "SCHEMES", "Problem", "IntegrationResult",
           "checked_snapshot_steps", "integrate"]


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
        """The step fractions of the exponentials, ascending."""
        if self.tableau is None:
            found = {f for term, f in self.maps + self.coarse if term == "K"}
        else:
            found = {group[0] for groups, *_ in _rows(self.tableau, 1.0)
                     for group in groups}
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
    """Linear operator + nonlinearity, with representation-aware wrappers;
    a plain operator becomes a one-block ``BlockOperator``."""

    def __init__(self, operator, nonlinear):
        if not isinstance(operator, BlockOperator):
            operator = BlockOperator([operator])
        if len(operator.blocks) != nonlinear.components:
            raise ValueError("the operator needs one block per component "
                             "of the nonlinearity")
        self.operator = operator
        self.nonlinear = nonlinear
        self.fourier = operator.representation == "fourier"

    # -- representation plumbing -------------------------------------
    def to_physical(self, fields):
        """Grid values, F-ordered like a snapshot's payload."""
        if not self.fourier:
            return fields
        return tuple(dft_inverse(u, out=np.empty(u.shape, complex, order="F"))
                     for u in fields)

    def from_physical(self, fields):
        if not self.fourier:
            return fields
        return tuple(dft_forward(u) for u in fields)

    # -- pieces the steppers use -------------------------------------
    # expk, g and flow take their result's arrays from the workspace ws;
    # they write their input, or give it back, only if ``owned``: the
    # caller hands it over

    def expk(self, exponentials, fields, ws, owned=False):
        """A prepared exponential (one per block) times fields; in place if
        owned and Fourier (a symbol product), else into a new workspace
        tuple."""
        out = fields if owned and self.fourier else ws.take()
        self.operator.exp_apply(exponentials, fields, out=out)
        if owned and out is not fields:
            ws.give(fields)
        return out

    def g(self, fields, ws, owned=False):
        """g(fields): the inverse transform, eval_g and the forward
        transform all run in one tuple, fields itself if owned."""
        out = fields if owned else ws.take()
        if self.fourier:
            fields = tuple(dft_inverse(u, out=v) for u, v in zip(fields, out))
        eval_g(self.nonlinear, fields, out=out)
        if self.fourier:
            for v in out:
                dft_forward(v, out=v)
        return out

    def flow(self, term, fields, t, ws, owned=False):
        """Subflow over time t: exact for "cubic" and "quintic" alone and
        for "g" of the cubic kind; else one ``rk4`` step on ``eval_g``.
        The transforms and an exact flow run in one tuple, fields itself
        if owned."""
        if self.fourier:
            out = fields if owned else ws.take()
            fields = tuple(dft_inverse(u, out=v) for u, v in zip(fields, out))
            owned = True
        if term == "g" and self.nonlinear.kind != "cubic":
            out = _run_tableau(_rows(_RK4, t), partial(_eval_g, self.nonlinear),
                               None, ws, fields)
            if owned:
                ws.give(fields)
        else:
            exact = quintic_flow if term == "quintic" else cubic_flow
            out = fields if owned else ws.take()
            for u, v in zip(fields, out):
                exact(u, t, self.nonlinear.params, out=v)
        if self.fourier:
            for v in out:
                dft_forward(v, out=v)
        return out


class _Workspace:
    """The full-size arrays of one integrate call: a free list of tuples
    with one array per component, shaped and ordered like the state.
    ``take`` pops a free tuple or makes one; ``give`` returns one that no
    later stage reads. A step's result is never given back."""

    def __init__(self, like):
        self._layout = [(u.shape, "F" if u.flags.f_contiguous
                         and not u.flags.c_contiguous else "C")
                        for u in like]
        self._free = []

    def take(self):
        if self._free:
            return self._free.pop()
        return tuple(np.empty(shape, complex, order=order)
                     for shape, order in self._layout)

    def give(self, *tuples):
        for arrays in tuples:
            if any(arrays[0] is free[0] for free in self._free):
                raise RuntimeError("workspace arrays given back twice")
            self._free.append(arrays)


def _eval_g(spec, fields, ws, owned=False):
    """eval_g as a stage value: in place if owned, else into a new tuple."""
    return eval_g(spec, fields, out=fields if owned else ws.take())


def _lincomb(*terms, out=None):
    """Per component, the sum of c * x over the (c, x) terms, in one pass.

    Terms fold left to right, acc = c * x + acc from the first term, and a
    coefficient of 1 adds its term as it is, so the bits are those of the
    chained whole-array expressions. ``out`` (default: new arrays) may be
    the first term's arrays, never another term's.
    """
    if terms[0][1][0].size >= spectral._SERIAL_BELOW:
        return _combine(terms, out)
    result = []
    for i in range(len(terms[0][1])):
        dst = None if out is None else out[i]
        c, x = terms[0]
        acc = x[i] if c == 1 else np.multiply(c, x[i], out=dst)
        for c, y in terms[1:]:
            y = y[i]
            acc = np.add(y if c == 1 else c * y, acc, out=dst)
        if dst is not None and acc is not dst:
            np.copyto(dst, acc)
            acc = dst
        result.append(acc)
    return tuple(result) if out is None else out


def _combine(terms, out):
    """The kernel path of _lincomb: one run_slabs call for all components."""
    dsts, jobs = [], []
    for i in range(len(terms[0][1])):
        xs = [x[i] for _, x in terms]
        dst = None if out is None else out[i]
        order = spectral.memory_order(xs, (dst,))
        if dst is None:
            dst = np.empty(xs[0].shape, np.result_type(*xs), order=order)
        dsts.append(dst)
        jobs.append(([np.ravel(x, order) for x in xs], dst.ravel(order),
                     dst is xs[0]))
    spectral.run_slabs(partial(_lincomb_chunks, [c for c, _ in terms], jobs),
                       dsts[0].size)
    return tuple(dsts) if out is None else out


def _lincomb_chunks(coefs, jobs, lo, hi):
    """The fold of _lincomb over srcs[j][lo:hi] into dst[lo:hi] for each
    (srcs, dst, in_place) job, one chunk at a time."""
    tmp = np.empty(min(spectral._CHUNK, hi - lo),
                   np.result_type(*[dst for _, dst, _ in jobs]))
    for srcs, dst, in_place in jobs:
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


def _rhs(p, fields, ws, owned=False):
    """K u + g(u) as a stage value; (1, g) then (1, Ku) has the bits of
    Ku + g, since two terms add the same either way."""
    lin = p.operator.apply(fields)
    k = p.g(fields, ws, owned)
    return _lincomb((1, k), (1, lin), out=k)


@lru_cache(maxsize=64)
def _rows(tableau, h):
    """A tableau's step h as a plan: (groups, last reads, stage) entries
    in the order they run.

    Stage i is E(c_i) u + h sum_j a_ij E(c_i - c_j) k_j with E(f) =
    exp(f h K), E = 1 without ``lawson``; b is a last row with c = 1. A
    group (fraction, c, terms) sums the terms (coefficient, slot of k)
    under one E (None for 0), stage values first, u = k[0] last; equal
    coefficients, as of one term, are applied after E as c. u's group,
    the largest E, is first.

    k holds u, k_1 and each entry's value but the last, the step's: a sum
    feeds f if ``stage``, else fills a slot. Early sums: as soon as the
    leading groups of a later row have all their stages, hold two or more
    terms and include the newest stage, their sum (each group under its E,
    in fold order) fills a slot, keyed (row, i), that the row then reads
    as its first term. Last reads: slots (j >= 1) no later entry reads.
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
        rows.append(groups)
    # stage i + 1 is the newest when row i runs; slot maps the stages that
    # exist and early sums, keyed (row, i), to their places in k
    slot, plan = {0: 0, 1: 1}, []
    for i, groups in enumerate(rows):
        for r in range(i + 1, len(rows)):
            n = 0
            while n < len(rows[r]) and all(j in slot
                                           for _, j in rows[r][n][2]):
                n += 1
            lead = [j for _, _, terms in rows[r][:n] for _, j in terms]
            if len(lead) > 1 and i + 1 in lead:
                plan.append((rows[r][:n], False))
                slot[r, i] = len(slot)
                rows[r][:n] = [(None, 1, ((1, (r, i)),))]
        plan.append((groups, True))
        slot[i + 2] = len(slot)
    plan = [(tuple((fraction, c, tuple((coef, slot[j]) for coef, j in terms))
                   for fraction, c, terms in groups), stage)
            for groups, stage in plan]
    last = {j: e for e, (groups, _) in enumerate(plan)
            for _, _, terms in groups for _, j in terms if j}
    return tuple((groups, frozenset(j for j, e in last.items() if e == i),
                  stage) for i, (groups, stage) in enumerate(plan))


def _run_tableau(plan, f, expk, ws, u):
    """One step from u, which is never written; f(U, ws, owned) is a
    stage's value, computed in U's arrays if the step owns them."""
    k = [u, f(u, ws)]
    for groups, dead, stage in plan[:-1]:
        x, owned = _row_sum(groups, dead, k, expk, ws)
        k.append(f(x, ws, owned) if stage else x)
    return _row_sum(*plan[-1][:2], k, expk, ws)[0]


def _row_sum(groups, dead, k, expk, ws):
    """An entry's sum and whether the step owns its arrays. The slots in
    ``dead`` are read by no later entry: each is written over by its
    group's sum or its exponential, or given back once read. A sum is
    written into its first term's arrays if the step owns them."""
    parts = []
    for exponential, c, terms in groups:
        x, owned = k[terms[0][1]], terms[0][1] in dead
        if len(terms) > 1:
            x = _lincomb(*[(coef, k[j]) for coef, j in terms],
                         out=x if owned else ws.take())
            ws.give(*[k[j] for _, j in terms[1:] if j in dead])
            owned = True
        if exponential is not None:
            x, owned = expk(exponential, x, ws, owned), True
        parts.append((c, x, owned))
    c, x, owned = parts[0]
    if len(parts) == 1 and c == 1:
        return x, owned
    total = _lincomb(*[(c, x) for c, x, _ in parts],
                     out=x if owned else ws.take())
    ws.give(*[x for _, x, owned in parts[1:] if owned])
    return total, True


def _compose(p, maps, ws, u):
    """u through the bound maps: (term, exponential or subflow time)."""
    owned = False
    for term, x in maps:
        u = (p.expk(x, u, ws, owned) if term == "K"
             else p.flow(term, u, x, ws, owned))
        owned = True
    return u


def _richardson(p, maps, coarse, ws, u):
    coarse = _compose(p, coarse, ws, u)
    fine = _compose(p, maps, ws, u)
    fine = _lincomb((4.0 / 3.0, fine), (-1.0 / 3.0, coarse), out=fine)
    ws.give(coarse)
    return fine


def _stepper(p, scheme, tau, exponentials, like):
    """u -> the scheme's step of size tau, with one workspace shaped like
    ``like`` for all its steps. The prepared exponentials replace the
    fractions of the tableau's rows and of the maps, whose flows get their
    times, so a step looks nothing up."""
    ws = _Workspace(like)
    if scheme.tableau is not None:
        plan = tuple((tuple((frac and exponentials[frac], c, terms)
                            for frac, c, terms in groups), dead, stage)
                     for groups, dead, stage in _rows(scheme.tableau, tau))
        f = p.g if scheme.tableau.lawson else partial(_rhs, p)
        return partial(_run_tableau, plan, f, p.expk, ws)

    def bound(maps):
        return tuple((term, exponentials[f] if term == "K"
                      else tau * f.numerator / f.denominator)
                     for term, f in maps)

    if scheme.coarse:
        return partial(_richardson, p, bound(scheme.maps),
                       bound(scheme.coarse), ws)
    return partial(_compose, p, bound(scheme.maps), ws)


@dataclass
class IntegrationResult:
    fields: tuple
    steps: int
    tau: float
    seconds: float
    diverged: bool = False
    diverged_at: int = 0
    reason: str = ""


def _checked_run(scheme_name, components, t_final, steps, what="steps"):
    """SCHEMES[scheme_name], else ValueError for an unknown scheme, exact
    cubic or quintic flows of several components (no cross term), steps
    not an integer >= 1, or a t_final not positive and finite."""
    if scheme_name not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme_name!r}; "
                         f"choose from {sorted(SCHEMES)}")
    scheme = SCHEMES[scheme_name]
    terms = {term for term, _ in scheme.maps + scheme.coarse}
    if components > 1 and terms & {"cubic", "quintic"}:
        raise ValueError("exact cubic and quintic flows leave out the "
                         "coupled cross term")
    if (not isinstance(steps, numbers.Integral) or isinstance(steps, bool)
            or steps < 1):
        raise ValueError(f"{what} must be an integer >= 1, got {steps!r}")
    if not (isinstance(t_final, numbers.Real) and 0 < t_final < np.inf):
        raise ValueError("t_final must be positive and finite")
    return scheme


def checked_snapshot_steps(snapshot_steps, steps):
    """snapshot_steps as a tuple, else ValueError unless it is iterable
    and every entry is an integer (not a bool) in 1..steps."""
    if not np.iterable(snapshot_steps):
        raise ValueError(f"snapshot steps must be a collection of step "
                         f"numbers, got {snapshot_steps!r}")
    snapshot_steps = tuple(snapshot_steps)
    for k in snapshot_steps:
        if (not isinstance(k, numbers.Integral) or isinstance(k, bool)
                or not 1 <= k <= steps):
            raise ValueError(f"snapshot steps must be integers in "
                             f"1..{steps}, got {k!r}")
    return snapshot_steps


def integrate(problem, scheme_name, fields, t_final, steps,
              snapshot_steps=(), on_snapshot=None):
    """March `steps` uniform steps of the named scheme to t_final.

    ValueError for an unknown scheme, exact flows of a coupled problem,
    steps not an integer >= 1, a t_final not positive and finite, or
    non-finite fields. The reported seconds cover the stepping loop only;
    ``diverged_at`` is 1-based. ``on_snapshot(k, t, fields)`` gets each
    requested step's state, which later steps never write.
    """
    scheme = _checked_run(scheme_name, problem.nonlinear.components,
                          t_final, steps)
    tau = t_final / steps
    fields = tuple(np.asarray(u, dtype=complex) for u in fields)
    if not all_finite(fields):
        raise ValueError("initial fields must be finite")
    wanted = set(checked_snapshot_steps(snapshot_steps, steps))
    # an exponential that overflows shows as divergence at step 1
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            exponentials = problem.operator.prepare(tau, scheme.fractions)
    except ExponentialOverflowError as err:
        return IntegrationResult(fields, steps, tau, 0.0, diverged=True,
                                 diverged_at=1, reason=str(err))
    step = _stepper(problem, scheme, tau, exponentials, fields)

    start = time.perf_counter()
    for k in range(1, steps + 1):
        reason = ""
        try:
            # overflow on a diverging trajectory is reported structurally,
            # not as a warning
            with np.errstate(over="ignore", invalid="ignore"):
                new = step(fields)
        except DivergenceError as err:
            reason = err.reason
        else:
            if not all_finite(new):
                reason = "non-finite state"
        if reason:
            # a step never writes its input: fields is the last finite state
            seconds = time.perf_counter() - start
            return IntegrationResult(fields, steps, tau, seconds,
                                     diverged=True, diverged_at=k,
                                     reason=reason)
        fields = new
        if k in wanted and on_snapshot is not None:
            on_snapshot(k, k * tau, fields)
    seconds = time.perf_counter() - start
    return IntegrationResult(fields, steps, tau, seconds)
