"""Benchmark presets, initial states, and measurement harnesses.

``PRESETS`` maps each name to its desk-scale config and ``_PAPER_SCALE``
to the paper's grid extents; ``_INITIAL_STATES`` maps
each initial-condition recipe to its builder. A config checks itself
when it is made; invalid configs, schemes, step counts, output
directories and snapshot requests are a ValueError before any run.
"""

import json
import math
import os
from dataclasses import MISSING, asdict, dataclass, fields, replace

import numpy as np

from . import spectral
from .flows import DivergenceError, NonlinearSpec
from .integrators import (Problem, _checked_run, checked_snapshot_steps,
                          integrate)
from .io import _staged, write_report, write_snapshot
from .operators import build_fd_operator, build_periodic_operator, fd_nodes
from .params import _SCALARS, CglParameters, _check_scalar
from .rng import normal_tensor
from .spectral import FourierGrid, dft_forward, dft_inverse

__all__ = [
    "ExperimentConfig", "PRESETS", "make_preset", "available_presets",
    "config_to_dict", "config_from_dict", "build_problem", "grid_axes",
    "initial_state", "plane_wave_parameters", "plane_wave_state",
    "necklace_state", "smooth_modes_state", "gaussian_profile",
    "prepare_coupled_initial", "relative_error", "ReferenceMismatch",
    "run_convergence_study", "least_squares_orders",
    "checked_snapshot_request", "run_preset",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one benchmark run, checked when it
    is made, by ``dataclasses.replace`` too: ValueError unless each str,
    int and float field is one (``params._check_scalar``), the name holds
    no path separator or NUL, params are ``CglParameters``, extents and
    intervals are lists or tuples of integers and of (a, b) pairs of
    finite reals (stored as int and float tuples), ``NonlinearSpec``
    takes the kind and params, ``integrate`` takes the scheme, t_final
    and steps for the kind, and a coupled kind has periodic boundaries.
    The boundary name, initial-condition recipe and seed range are
    checked where they are used, before any costly work."""

    name: str
    kind: str            # nonlinearity: cubic / cubic_quintic / coupled_...
    boundary: str        # periodic / dirichlet / dirichlet_neumann
    params: CglParameters
    intervals: tuple     # ((a, b), ...) per direction
    extents: tuple       # grid sizes per direction
    t_final: float
    ic: str              # initial-condition recipe
    scheme: str = "if4"
    steps: int = 240
    seed: int = 2024

    def __post_init__(self):
        for f in fields(self):
            if f.type in _SCALARS:
                _check_scalar(f"config key {f.name!r}", getattr(self, f.name),
                              f.type)
        # the name heads the output files, so it must name no directory
        if set(self.name) & {"/", os.sep, os.altsep, "\0"}:
            raise ValueError(f"config key 'name' must hold no path separator "
                             f"or NUL, got {self.name!r}")
        if not isinstance(self.params, CglParameters):
            raise ValueError(f"config key 'params' must be an object, "
                             f"got {self.params!r}")
        for n in _checked_list("extents", self.extents):
            _check_scalar("config key 'extents' entry", n, int)
        for ab in _checked_list("intervals", self.intervals):
            if not isinstance(ab, (list, tuple)) or len(ab) != 2:
                raise ValueError(f"config key 'intervals' entries must be "
                                 f"pairs, got {ab!r}")
            for x in ab:
                _check_scalar("config key 'intervals' entry", x, float)
        object.__setattr__(self, "extents", tuple(int(n) for n in self.extents))
        object.__setattr__(self, "intervals", tuple(
            (float(a), float(b)) for a, b in self.intervals))
        components = NonlinearSpec(self.kind, self.params).components
        _checked_run(self.scheme, components, self.t_final, self.steps)
        if components != 1 and self.boundary != "periodic":
            raise ValueError("coupled presets require periodic boundaries")


def config_to_dict(config):
    return asdict(config)


def _check_keys(data, cls, what):
    """ValueError naming the keys of data that cls lacks, or else the
    keys cls requires that data lacks."""
    unknown = sorted(set(data) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {what} key(s): {', '.join(unknown)}")
    missing = [f.name for f in fields(cls) if f.name not in data
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValueError(f"missing {what} key(s): {', '.join(missing)}")


def config_from_dict(data):
    """The ExperimentConfig of a dict, whose params may be a dict;
    ValueError for a non-dict, an unknown or missing key, or a config
    that does not check itself."""
    if not isinstance(data, dict):
        raise ValueError(f"a config must be an object, got {data!r}")
    _check_keys(data, ExperimentConfig, "config")
    params = data["params"]
    if isinstance(params, dict):
        _check_keys(params, CglParameters, "params")
        data = {**data, "params": CglParameters(**params)}
    return ExperimentConfig(**data)


def _checked_list(key, value):
    """value, a list or tuple, else ValueError naming the config key."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"config key {key!r} must be a list, got {value!r}")
    return value


# benchmark coefficient sets
_CUBIC = CglParameters(alpha1=1.0, beta1=2.0, alpha2=1.0,
                       alpha3=-1.0, beta3=0.2)
_CUBIC_QUINTIC = CglParameters(alpha1=0.5, beta1=0.5, alpha2=-0.5,
                               alpha3=2.52, beta3=1.0,
                               alpha4=-1.0, beta4=-0.11)
_COUPLED = CglParameters(alpha1=0.125, beta1=0.5, alpha2=-0.9,
                         alpha3=1.0, beta3=0.8, alpha4=-0.1, beta4=-0.6,
                         alpha0=-0.4, alpha5=0.5)

_CUBIC_2D = dict(kind="cubic", params=_CUBIC,
                 intervals=((0.0, 100.0),) * 2, extents=(64, 64),
                 t_final=6.0, ic="random_small", scheme="split4", steps=200)

# every preset at desk scale
PRESETS = {c.name: c for c in (
    ExperimentConfig(name="cubic-2d-dirichlet", boundary="dirichlet",
                     **_CUBIC_2D),
    ExperimentConfig(name="cubic-2d-periodic", boundary="periodic",
                     **_CUBIC_2D),
    ExperimentConfig(
        name="cubic-3d-dirichlet-neumann", kind="cubic",
        boundary="dirichlet_neumann", params=_CUBIC,
        intervals=((0.0, 100.0),) * 3, extents=(32,) * 3,
        t_final=10.0, ic="random_small", scheme="split4", steps=200),
    ExperimentConfig(
        name="cubic-quintic-3d-periodic", kind="cubic_quintic",
        boundary="periodic", params=_CUBIC_QUINTIC,
        intervals=((-12.0, 12.0),) * 3, extents=(32,) * 3,
        t_final=5.0, ic="necklace", scheme="if4", steps=200),
    ExperimentConfig(
        name="coupled-2d-periodic", kind="coupled_cubic_quintic",
        boundary="periodic", params=_COUPLED,
        intervals=((0.0, 70.0), (0.0, 35.0)), extents=(128, 64),
        t_final=3.0, ic="soliton_pair", scheme="if4", steps=300),
    ExperimentConfig(
        name="plane-wave-1d", kind="cubic", boundary="periodic",
        params=_CUBIC, intervals=((0.0, 50.0),), extents=(64,),
        t_final=1.0, ic="plane_wave", scheme="if4", steps=40),
)}

# the fields each preset changes at the resolutions of the paper's tables
_PAPER_SCALE = {
    "cubic-2d-dirichlet": {"extents": (256, 256)},
    "cubic-2d-periodic": {"extents": (256, 256)},
    "cubic-3d-dirichlet-neumann": {"extents": (128,) * 3},
    "cubic-quintic-3d-periodic": {"extents": (128,) * 3},
    "coupled-2d-periodic": {"extents": (700, 350)},
    "plane-wave-1d": {"extents": (256,)},
}


def available_presets():
    return sorted(PRESETS)


def make_preset(name, paper_scale=False, **overrides):
    """The named preset with the overrides, checked as ``config_from_dict``
    checks a config (ValueError)."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; "
                         f"choose from {available_presets()}")
    paper = _PAPER_SCALE[name] if paper_scale else {}
    return config_from_dict({**config_to_dict(PRESETS[name]), **paper,
                             **overrides})


# -- problem assembly --------------------------------------------------

def grid_axes(config):
    """Physical node coordinates, one 1D array per direction."""
    if config.boundary == "periodic":
        grid = FourierGrid(config.extents, config.intervals)
        return [grid.nodes(axis) for axis in range(grid.ndim)]
    return [a + fd_nodes(config.boundary, n, b - a)
            for n, (a, b) in zip(config.extents, config.intervals)]


def build_problem(config):
    spec = NonlinearSpec(config.kind, config.params)
    if config.boundary == "periodic":
        grid = FourierGrid(config.extents, config.intervals)
        # advection enters with opposite signs in the two components
        signs = (1, -1) if spec.components == 2 else (0,)
        return Problem([build_periodic_operator(grid, config.params, s)
                        for s in signs], spec)
    lengths = tuple(b - a for a, b in config.intervals)
    operator = build_fd_operator(config.params, config.extents, lengths,
                                 config.boundary)
    return Problem(operator, spec)


# -- initial conditions (physical space) --------------------------------

def smooth_modes_state(config):
    """Deterministic low-mode field of O(1) amplitude."""
    mesh = np.meshgrid(*grid_axes(config), indexing="ij")
    (a1, b1) = config.intervals[0]
    (a2, b2) = config.intervals[-1]
    x1 = mesh[0] - a1
    x2 = mesh[-1] - a2
    return ((0.3 + 0.2 * np.cos(2.0 * np.pi * x1 / (b1 - a1)))
            * np.exp(2j * np.pi * x2 / (b2 - a2))
            + 0.25 * np.exp(-2j * np.pi * x1 / (b1 - a1)))


def necklace_state(config):
    """Azimuthally modulated ring around the x3 = 0 plane (3D only): peak
    1.2, radius 6, width 2.5, 5 lobes and a phase twist of 3. The parts
    that vary in (x1, x2) only are made whole; the C-ordered result is
    filled on the slab pool, a slab of x1 planes per thread, with the
    whole-array expression's bits."""
    if len(config.extents) != 3:
        raise ValueError("necklace initial state needs a 3D grid")
    x1, x2, x3 = np.meshgrid(*grid_axes(config), indexing="ij", sparse=True)
    rho = np.hypot(x1, x2)
    theta = np.arctan2(x2, x1)
    ring, height = (rho - 6.0) ** 2, x3 ** 2
    lobes, twist = np.cos(5 * theta), np.exp(3j * theta)
    # r and the real amplitude are whole arrays, as in the expression;
    # with chunk-sized scratch instead, a heap block freed by earlier work
    # stayed resident through the stepping loop (CHANGES.md, "Set-up on
    # both cores")
    r, amp = np.empty(config.extents), np.empty(config.extents)
    out = np.empty(config.extents, complex)

    def fill(lo, hi):
        s = slice(lo, hi)
        np.sqrt(np.add(ring[s], height, out=r[s]), out=r[s])
        np.divide(r[s], 2.5, out=r[s])
        np.divide(1.2, np.cosh(r[s], out=amp[s]), out=amp[s])
        np.multiply(amp[s], lobes[s], out=amp[s])
        np.multiply(amp[s], twist[s], out=out[s])

    spectral.run_slabs(fill, len(out), out.size)
    return out


def gaussian_profile(x):
    return 2.25 * np.exp(-((x - 17.5) ** 2) / (2.0 * 2.5 ** 2)) + 0.0j


def plane_wave_parameters(params, interval, mode):
    """(kappa, rho, omega) of the exact single-mode solution."""
    a, b = interval
    kappa = 2.0 * math.pi * mode / (b - a)
    if params.alpha3 == 0.0:
        raise ValueError("plane-wave solution needs a cubic term")
    rho2 = (params.alpha1 * kappa ** 2 - params.alpha2) / params.alpha3
    if rho2 <= 0.0:
        raise ValueError("no plane wave at this mode: amplitude"
                         " squared would be nonpositive")
    rho = math.sqrt(rho2)
    omega = params.beta1 * kappa ** 2 - params.beta3 * rho2
    return kappa, rho, omega


def plane_wave_state(config, t):
    kappa, rho, omega = plane_wave_parameters(
        config.params, config.intervals[0], mode=1)
    mesh = np.meshgrid(*grid_axes(config), indexing="ij")
    return rho * np.exp(1j * (kappa * mesh[0] - omega * t))


_PRERUN_STEPS = 10000  # soliton_pair: the 1D pre-run's steps to t = 25
# the pre-run resolves the soliton fronts even when the 2D grid is coarse
_PRERUN_NODES = 512


def prepare_coupled_initial(config):
    """Two reflected quasi-1D solitons from a saturated 1D pre-run.

    A scalar cubic-quintic ``if4`` run on the first direction gives the
    line w, and u0(x1, x2) = w(x1), v0(x1, x2) = w(b - x1). The pre-run
    grid is the least multiple of extents[0] with ``_PRERUN_NODES`` nodes
    or more, so that an integer stride picks exact node values; a
    DivergenceError with the pre-run's step and reason if it diverges;
    ValueError, before the pre-run, unless the config is a 2D coupled one.
    """
    if len(config.extents) != 2 or config.kind != "coupled_cubic_quintic":
        raise ValueError("soliton_pair initial state needs a 2D grid and "
                         "the coupled_cubic_quintic kind")
    # the scalar equation: no advection, no cross term
    scalar = replace(config.params, alpha0=0.0, alpha5=0.0)
    n1 = config.extents[0]
    fine = n1 * -(-_PRERUN_NODES // n1)
    grid = FourierGrid((fine,), (config.intervals[0],))
    problem = Problem(build_periodic_operator(grid, scalar),
                      NonlinearSpec("cubic_quintic", scalar))
    w0 = gaussian_profile(grid.nodes(0))
    result = integrate(problem, "if4", (dft_forward(w0),), 25.0,
                       _PRERUN_STEPS)
    if result.diverged:
        raise DivergenceError(f"1D pre-run diverged at step "
                              f"{result.diverged_at}: {result.reason}; "
                              "cannot build the coupled initial state")
    w = dft_inverse(result.fields[0])[:: fine // n1]
    # w[(n - j) mod n] samples w at b - x_j on the periodic grid
    mirrored = np.roll(w[::-1], 1)
    n2 = config.extents[1]
    u0 = np.repeat(w[:, None], n2, axis=1)
    v0 = np.repeat(mirrored[:, None], n2, axis=1)
    return u0, v0


# initial-condition recipe -> physical-space initial components
_INITIAL_STATES = {
    "random_small": lambda c: (
        (normal_tensor(c.seed, c.extents) / 5000.0).astype(complex),),
    "smooth_modes": lambda c: (smooth_modes_state(c),),
    "necklace": lambda c: (necklace_state(c),),
    "plane_wave": lambda c: (plane_wave_state(c, 0.0),),
    "soliton_pair": prepare_coupled_initial,
}


def initial_state(config):
    """Physical-space initial components for a config, as a tuple."""
    if config.ic not in _INITIAL_STATES:
        raise ValueError(f"unknown initial-condition recipe {config.ic!r}")
    return _INITIAL_STATES[config.ic](config)


# -- measurements -------------------------------------------------------

class ReferenceMismatch(RuntimeError):
    """Two independent reference solves disagree beyond tolerance."""


def relative_error(fields, reference):
    """Max-norm relative error over all components."""
    num = max(float(np.max(np.abs(u - r)))
              for u, r in zip(fields, reference))
    den = max(float(np.max(np.abs(r))) for r in reference)
    return num / den


def least_squares_orders(rows):
    """Fit log(err) vs log(tau) per scheme over the clean rows."""
    samples = {}
    for row in rows:
        if row["status"] == "ok" and row["rel_err"]:
            samples.setdefault(row["scheme"], []).append(
                (row["tau"], row["rel_err"]))
    orders = {}
    for scheme, pts in samples.items():
        if len(pts) >= 2:
            slope = np.polyfit(np.log([t for t, _ in pts]),
                               np.log([e for _, e in pts]), 1)[0]
            orders[scheme] = float(slope)
    return orders


def run_convergence_study(config, schemes, step_counts, errors=True,
                          out_dir=None):
    """Error/order table for the given schemes over the step ladder.

    Returns (rows, meta): rows carry ``io.REPORT_COLUMNS``; meta gives the
    reference, the least-squares orders and, for a computed reference,
    the agreement of its two independent runs (if4 and split4 at 8x the
    finest step count). ReferenceMismatch, naming the scheme and its step
    count, is raised if either diverges, or if they disagree by more than
    10x the smallest measured error; if the first diverges, the second
    does not run. With errors=False no reference runs, rel_err and
    observed_order are None and meta is {}. Status "x" marks a diverged
    run, diverged_at its step (0 if none). With out_dir,
    ``io.write_report`` writes the rows to
    ``<out_dir>/<name>-sweep.csv`` and ``.json``, whose paths are
    meta["report"]. ``integrate``'s checks of the schemes and step
    counts, and an out_dir that is not a directory, are a ValueError
    before any run; the ladder is sorted and de-duplicated, and the
    schemes de-duplicated in the order they first appear.
    """
    _check_out_dir(out_dir)
    schemes = list(dict.fromkeys(schemes))
    if not schemes:
        raise ValueError("need at least one scheme")
    components = NonlinearSpec(config.kind, config.params).components
    for scheme in schemes:
        for m in step_counts:
            _checked_run(scheme, components, config.t_final, m,
                         "a step count")
    step_counts = sorted({int(m) for m in step_counts})
    if not step_counts:
        raise ValueError("need at least one step count")
    problem = build_problem(config)
    state0 = problem.from_physical(initial_state(config))

    reference, agreement, meta = None, None, {}
    if errors and config.ic == "plane_wave":
        reference = (plane_wave_state(config, config.t_final),)
        meta = {"reference": "exact plane wave"}
    elif errors:
        ref_steps = 8 * max(step_counts)
        finals = []
        for scheme in ("if4", "split4"):
            run = integrate(problem, scheme, state0, config.t_final, ref_steps)
            if run.diverged:
                raise ReferenceMismatch(
                    f"reference run {scheme} at {ref_steps} steps diverged "
                    f"at step {run.diverged_at}: {run.reason}")
            finals.append(problem.to_physical(run.fields))
        reference = finals[0]
        agreement = relative_error(finals[1], reference)
        meta = {"reference": f"if4 at {ref_steps} steps",
                "reference_agreement": agreement}

    # discard one short run so cache/library warm-up never lands in the
    # first timed row
    integrate(problem, schemes[0], state0,
              2.0 * config.t_final / max(step_counts), 2)

    rows = []
    finest = []
    for scheme in schemes:
        previous = None
        for m in step_counts:
            result = integrate(problem, scheme, state0, config.t_final, m)
            row = {"scheme": scheme, "steps": m, "tau": config.t_final / m,
                   "seconds": result.seconds, "rel_err": None,
                   "observed_order": None,
                   "status": "x" if result.diverged else "ok",
                   "diverged_at": result.diverged_at}
            rows.append(row)
            if result.diverged or reference is None:
                previous = None
                continue
            err = relative_error(problem.to_physical(result.fields),
                                 reference)
            row["rel_err"] = err
            if previous is not None and previous[1] > 0.0 and err > 0.0:
                row["observed_order"] = math.log(previous[1] / err) \
                    / math.log(m / previous[0])
            previous = (m, err)
        if previous is not None:
            finest.append(previous[1])

    if agreement is not None and finest:
        allowed = 10.0 * min(finest)
        if agreement > allowed:
            raise ReferenceMismatch(
                f"reference runs if4 and split4 at {ref_steps} steps differ "
                f"by {agreement:.3e}, more than 10x the smallest measured "
                f"error {min(finest):.3e}")
    if errors:
        meta["orders"] = least_squares_orders(rows)
    if out_dir:
        meta["report"] = write_report(
            os.path.join(out_dir, f"{config.name}-sweep"), rows)
    return rows, meta


def _check_out_dir(out_dir):
    """ValueError if out_dir, or its nearest parent that exists, is not a
    directory: no file could be written there."""
    if out_dir:
        path = os.path.abspath(out_dir)
        while not os.path.lexists(path):
            path = os.path.dirname(path)
        if not os.path.isdir(path):
            raise ValueError(f"out_dir {out_dir!r}: {path} exists and is "
                             f"not a directory")


def checked_snapshot_request(snapshot_steps, steps, out_dir):
    """``checked_snapshot_steps``, which need an out_dir if there are any."""
    snapshot_steps = checked_snapshot_steps(snapshot_steps, steps)
    if snapshot_steps and not out_dir:
        raise ValueError("snapshot_steps need an out_dir to write to")
    return snapshot_steps


def run_preset(config, snapshot_steps=(), out_dir=None):
    """One integration of a config; optional snapshots and summary file.

    Returns (summary, physical_fields). An out_dir that is not a
    directory and bad snapshot steps are a ValueError before any work;
    out_dir is made at the first write.
    """
    _check_out_dir(out_dir)
    snapshot_steps = checked_snapshot_request(snapshot_steps, config.steps,
                                              out_dir)
    problem = build_problem(config)
    axes = grid_axes(config)
    state0 = problem.from_physical(initial_state(config))
    written = []

    def output(suffix):
        os.makedirs(out_dir, exist_ok=True)
        return os.path.join(out_dir, f"{config.name}-{suffix}")

    def snap(step, t, fields):
        phys = problem.to_physical(fields)
        path = output(f"step{step:06d}.cgls")
        write_snapshot(path, phys, t, axes)
        written.append(path)

    result = integrate(problem, config.scheme, state0, config.t_final,
                       config.steps, snapshot_steps=snapshot_steps,
                       on_snapshot=snap)
    physical = problem.to_physical(result.fields)
    # a diverged run returns the state before its failing step
    reached = result.tau * (result.diverged_at - 1 if result.diverged
                            else result.steps)
    summary = {
        "preset": config.name,
        "extents": list(config.extents),
        "scheme": config.scheme,
        "steps": result.steps,
        "tau": result.tau,
        "seconds": result.seconds,
        "diverged": result.diverged,
        "diverged_at": result.diverged_at,
        "reason": result.reason,
        "t_reached": reached,
        "max_modulus": max(float(np.max(np.abs(u))) for u in physical),
    }
    if out_dir:
        final_path = output("final.cgls")
        write_snapshot(final_path, physical, reached, axes)
        written.append(final_path)
        with _staged(output("summary.json"), "x") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
    summary["snapshots"] = written
    return summary, physical
