"""Time integrators: schemes as data, one step program, ``integrate``.

Every scheme advances du/dt = K u + g(u), with K one operator per
component. A state is a tuple with one array per component, in the
operators' representation: grid values for Kronecker operators, Fourier
coefficients for symbol operators. ``SCHEMES`` maps each name to its
``Scheme``, a ``Tableau`` or map lists, which ``integrate`` lowers once,
straight to a flat op program on fixed workspace slots (``_lower``).

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
from functools import partial
from itertools import repeat, takewhile
from operator import itemgetter

import numpy as np

from . import spectral
from .flows import (DivergenceError, all_finite, cubic_flow, eval_g,
                    quintic_flow)
from .linalg import ExponentialOverflowError
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
    """A tableau, or a composition of maps with an optional coarse one;
    ValueError if its step needs an exponential of a fraction <= 0."""

    name: str
    order: int
    tableau: Tableau = None
    maps: tuple = ()    # (term, fraction of tau), applied in order
    coarse: tuple = ()  # if given, the step is (4/3) maps - (1/3) coarse

    def __post_init__(self):
        least = min(self.fractions, default=1)
        if least <= 0:
            raise ValueError(f"scheme {self.name!r} needs the exponential "
                             f"of step fraction {least}, and step "
                             f"fractions must be positive")

    @property
    def fractions(self):
        """The step fractions of the exponentials, ascending."""
        ops, _ = _lower(self, 1.0, True, True)
        return tuple(sorted({arg for kind, arg, _ in ops if kind == "exp"}))


class Problem:
    """One linear operator per component (a lone operator for one) and
    the nonlinearity, with representation-aware wrappers. ValueError
    unless there is one operator per component of the nonlinearity and
    they share one representation and one shape."""

    def __init__(self, operators, nonlinear):
        if not isinstance(operators, (list, tuple)):
            operators = [operators]
        if len(operators) != nonlinear.components:
            raise ValueError(f"need one operator per component of the "
                             f"nonlinearity ({nonlinear.components}), got "
                             f"{len(operators)}")
        if len({(op.representation, op.shape) for op in operators}) != 1:
            raise ValueError("all operators must share a representation "
                             "and a shape")
        self.operators = tuple(operators)
        self.nonlinear = nonlinear
        self.shape = operators[0].shape
        self.fourier = operators[0].representation == "fourier"

    # -- representation plumbing -------------------------------------
    def to_physical(self, fields):
        """Grid values, F-ordered like a snapshot's payload: a grid state
        ``integrate`` returns is so already and is returned as it is."""
        if not self.fourier:
            return fields
        return tuple(dft_inverse(u, out=np.empty(u.shape, complex, order="F"))
                     for u in fields)

    def from_physical(self, fields):
        if not self.fourier:
            return fields
        return tuple(dft_forward(u) for u in fields)


def _lincomb(*terms, out):
    """Per component, the sum of c * x over the (c, x) terms, in one pass,
    into ``out``'s arrays, which may be the first term's, never another
    term's; returns ``out``.

    Terms fold left to right, acc = c * x + acc from the first term, and a
    coefficient of 1 adds its term as it is, so the bits are those of the
    chained whole-array expressions.
    """
    if terms[0][1][0].size >= spectral._SERIAL_BELOW:
        _combine(terms, out)
        return out
    for i, dst in enumerate(out):
        c, x = terms[0]
        acc = x[i] if c == 1 else np.multiply(c, x[i], out=dst)
        for c, y in terms[1:]:
            y = y[i]
            acc = np.add(y if c == 1 else c * y, acc, out=dst)
        if acc is not dst:
            np.copyto(dst, acc)
    return out


def _combine(terms, out):
    """The kernel path of _lincomb: one run_slabs call for all components."""
    jobs = []
    for i, dst in enumerate(out):
        xs = [x[i] for _, x in terms]
        order = spectral.memory_order(xs, (dst,))
        jobs.append(([np.ravel(x, order) for x in xs], dst.ravel(order),
                     dst is xs[0]))
    spectral.run_slabs(partial(_lincomb_chunks, [c for c, _ in terms], jobs),
                       out[0].size, out[0].size)


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


def _groups(tableau, h):
    """A tableau's step h as rows of groups (fraction, c, terms): one row
    per row of ``a`` after the first, then b.

    Stage i is E(c_i) u + h sum_j a_ij E(c_i - c_j) k_j with E(f) =
    exp(f h K), E = 1 without ``lawson``; b is a last row with c = 1. A
    group sums its terms (coefficient, j), k_j or u for j = 0, under one E
    (fraction None for E = 1), stages first and u last; equal coefficients,
    as of one term, are applied after E as c. u's group, the largest E,
    is first.
    """
    nodes = [sum(row, Fraction(0)) for row in tableau.a] + [_ONE]
    rows = []
    for i, weights in enumerate(tableau.a[1:] + (tableau.b,), start=1):
        terms = [(nodes[i] - nodes[j], h * w.numerator / w.denominator, j + 1)
                 for j, w in enumerate(weights) if w]
        by_fraction = {}
        for fraction, coef, j in terms + [(nodes[i], 1, 0)]:
            key = fraction if tableau.lawson else 0
            by_fraction.setdefault(key, []).append((coef, j))
        groups = []
        for fraction in sorted(by_fraction, reverse=True):
            terms = by_fraction[fraction]
            c = terms[0][0] if len({coef for coef, _ in terms}) == 1 else 1
            groups.append((fraction or None, c,
                           [(coef / c, j) for coef, j in terms]))
        rows.append(groups)
    return rows


def _lower(scheme, tau, fourier, exact_g):
    """The scheme's step of size tau as ops (kind, arg, reads) on values,
    and the value of the step's result: value 0 is the step's input and
    value i the output of op i - 1.

    Kinds: "exp" (arg: the fraction of a prepared exponential), "inverse"
    and "forward" transforms, "eval_g", "flow" (arg: the term, whose exact
    flow it is, and the time), "lincomb" (arg: a coefficient per read) and
    "K u". A tableau lowers row by row from its ``_groups``, a map list
    map by map; a "g" subflow is exact if ``exact_g``, else an inlined
    ``rk4`` step on eval_g, and in Fourier space each flow runs between an
    inverse and a forward transform.
    """
    ops = []

    def emit(kind, arg, *reads):
        ops.append((kind, arg, reads))
        return len(ops)

    def physical(op, x):
        # in Fourier space g and the flows run between transforms
        if fourier:
            x = emit("inverse", None, x)
        x = op(x)
        return emit("forward", None, x) if fourier else x

    g = partial(emit, "eval_g", None)

    def rhs(x):
        # (1, g) then (1, K u) has the bits of K u + g: two terms add the
        # same either way
        ku = emit("K u", None, x)
        return emit("lincomb", (1, 1), physical(g, x), ku)

    def row_sum(groups, value):
        parts = []
        for fraction, c, terms in groups:
            x = value[terms[0][1]]
            if len(terms) > 1:
                x = emit("lincomb", tuple(coef for coef, _ in terms),
                         *[value[j] for _, j in terms])
            if fraction is not None:
                x = emit("exp", fraction, x)
            parts.append((c, x))
        coefs, xs = zip(*parts)
        return xs[0] if coefs == (1,) else emit("lincomb", coefs, *xs)

    def tableau(tab, h, f, u):
        # value holds the stages (u is stage 0, k_j stage j) and the early
        # sums, keyed (r, i). Before row i runs, stage i + 1 is the newest:
        # a later row r whose leading groups have all their stages, hold
        # two or more terms and include stage i + 1 sums them now (each
        # group under its E, in fold order) and reads that sum first
        rows, value = _groups(tab, h), {0: u, 1: f(u)}
        for i, groups in enumerate(rows[:-1]):
            for r in range(i + 1, len(rows)):
                lead = list(takewhile(
                    lambda group: all(j in value for _, j in group[2]),
                    rows[r]))
                stages = [j for _, _, terms in lead for _, j in terms]
                if len(stages) > 1 and i + 1 in stages:
                    value[r, i] = row_sum(lead, value)
                    rows[r][:len(lead)] = [(None, 1, [(1, (r, i))])]
            value[i + 2] = f(row_sum(groups, value))
        return row_sum(rows[-1], value)

    def compose(maps, x=0):
        for term, f in maps:
            t = tau * f.numerator / f.denominator
            if term == "K":
                x = emit("exp", f, x)
            elif term == "g" and not exact_g:
                x = physical(partial(tableau, _RK4, t, g), x)
            else:
                x = physical(partial(emit, "flow", (term, t)), x)
        return x

    if scheme.tableau is not None:
        f = partial(physical, g) if scheme.tableau.lawson else rhs
        result = tableau(scheme.tableau, tau, f, 0)
    elif scheme.coarse:
        coarse = compose(scheme.coarse)
        result = emit("lincomb", (4.0 / 3.0, -1.0 / 3.0), compose(scheme.maps),
                      coarse)
    else:
        result = compose(scheme.maps)
    return tuple(ops), result


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


def _slots(ops, fourier):
    """Each value's workspace slot, by one liveness scan, and the slot
    count. A slot is free again after the last read of its value, so the
    step's result, which no op reads, keeps its slot.

    An op writes into the slot of its first read if that read dies there
    and the op may write it: a lincomb its first term, an exponential or
    "K u" its input in Fourier space only, a transform, eval_g or flow its
    input. Else it takes a free slot, or a new one. Slot 0 holds the
    step's input and is never written.
    """
    last = {r: i for i, (_, _, reads) in enumerate(ops) for r in reads}
    slot, free, count = [0], [], 0
    for i, (kind, _, reads) in enumerate(ops):
        first = slot[reads[0]]
        if (first > 0 and last[reads[0]] == i
                and (kind not in ("exp", "K u") or fourier)):
            w = first
        else:
            w = free.pop() if free else count + 1
            count = max(count, w)
        free += [slot[r] for r in reads
                 if last[r] == i and slot[r] > 0 and slot[r] != w]
        slot.append(w)
    return slot, count


def _stepper(p, scheme, tau, exponentials, like):
    """u -> the scheme's step of size tau: one loop over the lowered ops,
    on workspace arrays shaped like ``like`` for all its steps; component
    i's exponentials are ``exponentials[i]``. The slot of the step's
    result gets new arrays each step, since the caller keeps that state;
    no step writes slot 0, its input. The ops call the module names and
    operator methods bound when this runs."""
    ops, result = _lower(scheme, tau, p.fourier, p.nonlinear.kind == "cubic")
    slot, count = _slots(ops, p.fourier)
    out = slot[result]
    flows = {"g": cubic_flow, "cubic": cubic_flow, "quintic": quintic_flow}

    def call(kind, arg):
        if kind == "lincomb":
            return lambda *fields, out: _lincomb(*zip(arg, fields), out=out)
        if kind == "eval_g":
            return partial(eval_g, p.nonlinear)
        # every other op acts on each component into out's arrays
        if kind == "exp":
            each = [partial(op.exp_apply, e[arg])
                    for op, e in zip(p.operators, exponentials)]
        elif kind == "K u":
            each = [op.apply for op in p.operators]
        else:
            fn = {"inverse": dft_inverse, "forward": dft_forward}.get(kind)
            each = repeat(fn or partial(flows[arg[0]], t=arg[1],
                                        params=p.nonlinear.params))
        return lambda fields, out: tuple(f(u, out=v)
                                         for f, u, v in zip(each, fields, out))

    runs = tuple(_run(call(kind, arg), [slot[r] for r in reads], slot[v])
                 for v, (kind, arg, reads) in enumerate(ops, start=1))
    slots = [_empty(like) if 0 < j != out else None
             for j in range(count + 1)]

    def step(u):
        # slot 0 holds no earlier input when the result's arrays are made
        slots[out] = _empty(like)
        slots[0] = u
        for run in runs:
            run(slots)
        result, slots[0] = slots[out], None
        return result

    return step


def _run(fn, reads, w):
    """The op as a call on the slot list s: fn of the read slots into slot
    w, whose arrays it may write."""
    r, get = reads[0], itemgetter(*reads)
    if len(reads) > 1:
        def run(s):
            s[w] = fn(*get(s), out=s[w])
    else:
        def run(s):
            s[w] = fn(s[r], out=s[w])
    return run


def _empty(like):
    """New arrays shaped and ordered like the state ``like``."""
    return tuple(np.empty_like(u) for u in like)


@dataclass
class IntegrationResult:
    fields: tuple
    steps: int
    tau: float
    seconds: float
    diverged: bool = False
    diverged_at: int = 0
    reason: str = ""


def _fits(scheme, components):
    """Whether the scheme runs a problem of that many components: exact
    cubic and quintic flows of several leave out the coupled cross term."""
    terms = {term for term, _ in scheme.maps + scheme.coarse}
    return components == 1 or not terms & {"cubic", "quintic"}


def _checked_run(scheme_name, components, t_final, steps, what="steps"):
    """SCHEMES[scheme_name], else ValueError for an unknown scheme, exact
    cubic or quintic flows of several components (no cross term), steps
    not an integer >= 1, or a t_final not a positive finite real."""
    if scheme_name not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme_name!r}; "
                         f"choose from {sorted(SCHEMES)}")
    scheme = SCHEMES[scheme_name]
    if not _fits(scheme, components):
        raise ValueError("exact cubic and quintic flows leave out the "
                         "coupled cross term")
    if (not isinstance(steps, numbers.Integral) or isinstance(steps, bool)
            or steps < 1):
        raise ValueError(f"{what} must be an integer >= 1, got {steps!r}")
    if (not isinstance(t_final, numbers.Real) or isinstance(t_final, bool)
            or not 0 < t_final < np.inf):
        raise ValueError(f"t_final must be a positive finite real, "
                         f"got {t_final!r}")
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
    steps not an integer >= 1, a t_final not a positive finite real, or
    fields that are not one finite array of ``problem.shape`` per
    component. The reported seconds cover the stepping loop only;
    ``diverged_at`` is 1-based. ``on_snapshot(k, t, fields)`` gets each
    requested step's state, which later steps never write.

    Every state of a run, the returned one included, has its
    representation's memory order: F (column-major) for grid values, C
    for Fourier coefficients. Initial fields in that order are used as
    they are; others are copied once.
    """
    scheme = _checked_run(scheme_name, problem.nonlinear.components,
                          t_final, steps)
    tau = t_final / steps
    # one memory order per representation: the Kronecker products run
    # column-major and the symbol exponentials are C-ordered
    order = "C" if problem.fourier else "F"
    fields = tuple(np.asarray(u, dtype=complex, order=order) for u in fields)
    n = len(problem.operators)
    if [u.shape for u in fields] != [problem.shape] * n:
        raise ValueError(f"initial fields must be {n} array(s) of shape "
                         f"{problem.shape}")
    if not all_finite(fields):
        raise ValueError("initial fields must be finite")
    wanted = set(checked_snapshot_steps(snapshot_steps, steps))
    # an exponential that overflows shows as divergence at step 1
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            exponentials = [op.prepare(tau, scheme.fractions)
                            for op in problem.operators]
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
