"""Per-layer spans recorded from outside the library.

Each public function of a layer is wrapped where its consumer looks it
up: the name the consuming module imported (``operators.tucker_apply``,
``integrators.dft_forward``, ``experiments.integrate``, ...) or the
method on the operator class. A span records calls and inclusive
seconds; its self seconds exclude the spans opened inside it. Steps are
not functions the library exposes, so ``integrators.step`` is derived
from each ``integrate`` call: its loop seconds minus the spans opened by
the loop.
"""

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# spans opened by integrate() outside its stepping loop
_PREPARE = "operators.prepare"


def tucker_flop(u, mats):
    """Real flops of the mode products: 8 per complex multiply-add."""
    size, flop = u.size, 0
    for m in mats:
        rows, cols = m.shape
        flop += 8 * rows * size
        size = size // cols * rows
    return flop


class Tracer:
    """Calls, inclusive and self seconds per layer, split by phase."""

    def __init__(self):
        self.calls = Counter()
        self.phase_calls = Counter()
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.work = defaultdict(float)
        self.phase = "setup"
        self._stack = []

    def _timed(self, name, fn, args, kwargs):
        frame = defaultdict(float)
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][name] += elapsed
        self.calls[name] += 1
        self.phase_calls[self.phase, name] += 1
        self.seconds[name] += elapsed
        self.self_seconds[name] += elapsed - sum(frame.values())
        return result, frame

    def wrap(self, name, fn, work=None):
        def traced(*args, **kwargs):
            result, _ = self._timed(name, fn, args, kwargs)
            if work is not None:
                self.work[name] += work(*args)
            return result
        return traced

    def wrap_integrate(self, name, phase, fn):
        def traced(*args, **kwargs):
            outer, self.phase = self.phase, phase
            try:
                result, frame = self._timed(name, fn, args, kwargs)
            finally:
                self.phase = outer
            loop_children = sum(s for n, s in frame.items() if n != _PREPARE)
            self.calls["integrators.step"] += (result.diverged_at
                                               or result.steps)
            self.self_seconds["integrators.step"] += (result.seconds
                                                      - loop_children)
            return result
        return traced


def _sites(cglsolve):
    """(owner, attribute, layer) for every rebinding the trace makes."""
    ops = cglsolve.operators
    integ = cglsolve.integrators
    exp = cglsolve.experiments
    io = cglsolve.io
    return [
        (ops, "tucker_apply", "tensors.tucker_apply"),
        (ops, "pointwise_apply", "spectral.pointwise_apply"),
        (ops, "expm_pade", "linalg.expm_pade"),
        (ops, "symbol_exponential", "spectral.symbol_exponential"),
        (ops.KroneckerOperator, "prepare", _PREPARE),
        (ops.FourierOperator, "prepare", _PREPARE),
        (ops.KroneckerOperator, "exp_apply", "operators.exp_apply"),
        (ops.FourierOperator, "exp_apply", "operators.exp_apply"),
        (integ, "cubic_flow", "flows.cubic_flow"),
        (integ, "quintic_flow", "flows.quintic_flow"),
        (integ, "eval_g", "flows.eval_g"),
        (integ, "dft_forward", "spectral.dft_forward"),
        (integ, "dft_inverse", "spectral.dft_inverse"),
        (exp, "dft_forward", "spectral.dft_forward"),
        (exp, "dft_inverse", "spectral.dft_inverse"),
        (exp, "normal_tensor", "rng.normal_tensor"),
        (io, "write_snapshot", "io.write_snapshot"),
        (io, "read_snapshot", "io.read_snapshot"),
    ]


def _snapshot_mb(path, fields, time_, grids):
    return sum(u.size for u in fields) * 16 / 1e6


@contextmanager
def installed(cglsolve, tracer):
    """Rebind every traced name to its span for the body of the block."""
    work = {"tensors.tucker_apply": tucker_flop,
            "io.write_snapshot": _snapshot_mb}
    saved = []
    for owner, attr, layer in _sites(cglsolve):
        fn = owner.__dict__[attr]
        saved.append((owner, attr, fn))
        setattr(owner, attr, tracer.wrap(layer, fn, work.get(layer)))
    for owner, attr, name, phase in (
            (cglsolve.experiments, "integrate", "experiments.prerun",
             "prerun"),
            (cglsolve.integrators, "integrate", "integrators.integrate",
             "loop")):
        fn = owner.__dict__[attr]
        saved.append((owner, attr, fn))
        setattr(owner, attr, tracer.wrap_integrate(name, phase, fn))
    try:
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)
