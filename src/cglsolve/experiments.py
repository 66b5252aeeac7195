"""Benchmark presets, initial states, and measurement harnesses.

Set-up is data. ``PRESETS`` maps each name to its desk-scale config,
which keeps every study under a couple of minutes on one core;
``_PAPER_SCALE`` holds the fields each preset changes at the full
resolutions the benchmark tables were produced at, and
``make_preset(name, paper_scale=True)`` applies them. ``initial_state``
looks its recipe up in ``_INITIAL_STATES``. Convergence studies measure
against an exact plane-wave solution when one exists, otherwise against
a fine-step reference cross-checked between two unrelated 4th-order
schemes.
"""

import json
import math
import numbers
import os
from dataclasses import MISSING, asdict, dataclass, fields, replace

import numpy as np

from .flows import NonlinearSpec
from .integrators import (SCHEMES, Problem, checked_snapshot_steps,
                          integrate)
from .io import write_snapshot
from .operators import (BlockOperator, build_fd_operator,
                        build_periodic_operator, fd_nodes)
from .params import CglParameters
from .rng import normal_tensor
from .spectral import FourierGrid, dft_forward, dft_inverse

__all__ = [
    "ExperimentConfig", "PRESETS", "make_preset", "available_presets",
    "config_to_dict", "config_from_dict", "build_problem", "grid_axes",
    "initial_state", "plane_wave_parameters", "plane_wave_state",
    "necklace_state", "smooth_modes_state", "gaussian_profile",
    "prepare_coupled_initial", "relative_error", "relative_modulus_drift",
    "ReferenceMismatch", "run_convergence_study", "least_squares_orders",
    "stability_sweep", "run_preset",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one benchmark run."""

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
    ic_mode: int = 1     # plane-wave mode index
    prerun_steps: int = 10000   # soliton_pair: 1D pre-run steps
    prerun_time: float = 25.0   # soliton_pair: 1D pre-run final time
    prerun_extent: int = 0      # soliton_pair: 1D pre-run grid (0: extents[0])


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


_SCALARS = {str: ("a string", str), int: ("an integer", numbers.Integral),
            float: ("a finite real", numbers.Real)}


def _check_scalar(name, value, kind):
    """ValueError unless value is a str, an int or a finite real (float)."""
    what, cls = _SCALARS[kind]
    if (not isinstance(value, cls) or isinstance(value, bool)
            or kind is float and not math.isfinite(value)):
        raise ValueError(f"{name} must be {what}, got {value!r}")


def config_from_dict(data):
    if not isinstance(data, dict):
        raise ValueError(f"a config must be an object, got {data!r}")
    _check_keys(data, ExperimentConfig, "config")
    for f in fields(ExperimentConfig):
        if f.name in data and f.type in _SCALARS:
            _check_scalar(f"config key {f.name!r}", data[f.name], f.type)
    data = dict(data)
    params = data.pop("params")
    if isinstance(params, dict):
        _check_keys(params, CglParameters, "params")
        params = CglParameters(**params)
    elif not isinstance(params, CglParameters):
        raise ValueError(f"config key 'params' must be an object, "
                         f"got {params!r}")
    extents = _checked_list("extents", data.pop("extents"))
    for n in extents:
        _check_scalar("config key 'extents' entry", n, int)
    intervals = _checked_list("intervals", data.pop("intervals"))
    for ab in intervals:
        if not isinstance(ab, (list, tuple)) or len(ab) != 2:
            raise ValueError(f"config key 'intervals' entries must be "
                             f"pairs, got {ab!r}")
        for x in ab:
            _check_scalar("config key 'intervals' entry", x, float)
    return ExperimentConfig(
        params=params, extents=tuple(int(n) for n in extents),
        intervals=tuple((float(a), float(b)) for a, b in intervals), **data)


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
    # the pre-run must resolve the soliton fronts even when the 2D grid
    # is coarse; 512 = 4 * 128 keeps the coarse nodes a subset
    ExperimentConfig(
        name="coupled-2d-periodic", kind="coupled_cubic_quintic",
        boundary="periodic", params=_COUPLED,
        intervals=((0.0, 70.0), (0.0, 35.0)), extents=(128, 64),
        t_final=3.0, ic="soliton_pair", scheme="if4", steps=300,
        prerun_extent=512),
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
    "coupled-2d-periodic": {"extents": (700, 350), "prerun_extent": 700},
    "plane-wave-1d": {"extents": (256,)},
}


def available_presets():
    return sorted(PRESETS)


def make_preset(name, paper_scale=False, **overrides):
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; "
                         f"choose from {available_presets()}")
    paper = _PAPER_SCALE[name] if paper_scale else {}
    return replace(PRESETS[name], **{**paper, **overrides})


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
        return Problem(BlockOperator([build_periodic_operator(
            grid, config.params, s) for s in signs]), spec)
    if spec.components != 1:
        raise ValueError("coupled presets require periodic boundaries")
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


def necklace_state(config, delta=1.2, radius=6.0, width=2.5,
                   lobes=5, twist=3):
    """Azimuthally modulated ring around the x3 = 0 plane (3D only)."""
    if len(config.extents) != 3:
        raise ValueError("necklace initial state needs a 3D grid")
    x1, x2, x3 = np.meshgrid(*grid_axes(config), indexing="ij")
    rho = np.hypot(x1, x2)
    theta = np.arctan2(x2, x1)
    r = np.sqrt((rho - radius) ** 2 + x3 ** 2) / width
    return (delta / np.cosh(r)) * np.cos(lobes * theta) \
        * np.exp(1j * twist * theta)


def gaussian_profile(x, delta=2.25, center=17.5, width=2.5):
    return delta * np.exp(-((x - center) ** 2) / (2.0 * width ** 2)) \
        + 0.0j


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
        config.params, config.intervals[0], config.ic_mode)
    mesh = np.meshgrid(*grid_axes(config), indexing="ij")
    return rho * np.exp(1j * (kappa * mesh[0] - omega * t))


def prepare_coupled_initial(config):
    """Two reflected quasi-1D solitons from a saturated 1D pre-run.

    A scalar cubic-quintic run on the first direction is marched until
    its modulus freezes; the resulting line w becomes u0(x1, x2) = w(x1)
    and v0(x1, x2) = w(b - x1), so the components start as mirror images
    approaching each other under the opposite-sign advection.

    The pre-run grid may be finer than the target grid (prerun_extent a
    multiple of extents[0]): the soliton fronts need more resolution
    than the coupled benchmark grid provides, and on a periodic grid an
    integer stride picks exact node values.
    """
    # the scalar equation: no advection, no cross term
    scalar = replace(config.params, alpha0=0.0, alpha5=0.0)
    n1 = config.extents[0]
    fine = config.prerun_extent or n1
    if fine % n1 != 0:
        raise ValueError("prerun_extent must be a multiple of the first "
                         "grid extent")
    grid = FourierGrid((fine,), (config.intervals[0],))
    problem = Problem(build_periodic_operator(grid, scalar),
                      NonlinearSpec("cubic_quintic", scalar))
    w0 = gaussian_profile(grid.nodes(0))
    result = integrate(problem, "if4", (dft_forward(w0),),
                       config.prerun_time, config.prerun_steps)
    if result.diverged:
        raise RuntimeError("1D pre-run diverged; cannot build the "
                           "coupled initial state")
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


def relative_modulus_drift(before, after):
    """How much the modulus field moved, relative to its size."""
    change = float(np.max(np.abs(np.abs(after) - np.abs(before))))
    return change / float(np.max(np.abs(before)))


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


def run_convergence_study(config, schemes, step_counts):
    """Error/order table for the given schemes over the step ladder.

    Returns (rows, meta): rows carry the report columns; meta records the
    reference used, the least-squares orders, and (for computed
    references) the agreement between the two independent reference
    runs. A reference disagreement above 10x the smallest measured error
    aborts the study.
    """
    for scheme in schemes:
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}")
    step_counts = sorted({int(m) for m in step_counts})
    if not step_counts:
        raise ValueError("need at least one step count")
    problem = build_problem(config)
    state0 = problem.from_physical(initial_state(config))

    if config.ic == "plane_wave":
        reference = (plane_wave_state(config, config.t_final),)
        meta = {"reference": "exact plane wave"}
        agreement = None
    else:
        ref_steps = 8 * max(step_counts)
        first = integrate(problem, "if4", state0, config.t_final, ref_steps)
        second = integrate(problem, "split4", state0, config.t_final,
                           ref_steps)
        if first.diverged or second.diverged:
            raise ReferenceMismatch("a reference run diverged")
        reference = problem.to_physical(first.fields)
        agreement = relative_error(problem.to_physical(second.fields),
                                   reference)
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
            tau = config.t_final / m
            result = integrate(problem, scheme, state0, config.t_final, m)
            if result.diverged:
                rows.append({"scheme": scheme, "steps": m, "tau": tau,
                             "seconds": result.seconds, "rel_err": None,
                             "observed_order": None, "status": "x"})
                previous = None
                continue
            err = relative_error(problem.to_physical(result.fields),
                                 reference)
            order = None
            if previous is not None and previous[1] > 0.0 and err > 0.0:
                order = math.log(previous[1] / err) / math.log(
                    m / previous[0])
            rows.append({"scheme": scheme, "steps": m, "tau": tau,
                         "seconds": result.seconds, "rel_err": err,
                         "observed_order": order, "status": "ok"})
            previous = (m, err)
        if previous is not None:
            finest.append(previous[1])

    if agreement is not None and finest:
        allowed = 10.0 * min(finest)
        if agreement > allowed:
            raise ReferenceMismatch(
                f"independent reference runs differ by {agreement:.3e}, "
                f"more than 10x the smallest measured error "
                f"{min(finest):.3e}")
    meta["orders"] = least_squares_orders(rows)
    return rows, meta


def stability_sweep(config, schemes, step_counts):
    """Which schemes survive which step counts; no reference needed."""
    problem = build_problem(config)
    state0 = problem.from_physical(initial_state(config))
    table = {}
    for scheme in schemes:
        outcomes = []
        for m in step_counts:
            result = integrate(problem, scheme, state0, config.t_final,
                               int(m))
            outcomes.append({"steps": int(m),
                             "diverged": result.diverged,
                             "diverged_at": result.diverged_at,
                             "seconds": result.seconds})
        table[scheme] = outcomes
    return table


def run_preset(config, snapshot_steps=(), out_dir=None,
               frozen_probe_steps=0):
    """One integration of a config; optional snapshots and summary file.

    Returns (summary, physical_fields). With frozen_probe_steps > 0 the
    run is continued that many extra steps and the relative modulus
    drift over the continuation is reported (a frozen state shows a
    drift near zero).
    """
    _check_scalar("frozen_probe_steps", frozen_probe_steps, int)
    if frozen_probe_steps < 0:
        raise ValueError("frozen_probe_steps must be >= 0")
    snapshot_steps = checked_snapshot_steps(snapshot_steps, config.steps)
    if snapshot_steps and not out_dir:
        raise ValueError("snapshot_steps need an out_dir to write to")
    problem = build_problem(config)
    axes = grid_axes(config)
    state0 = problem.from_physical(initial_state(config))
    written = []

    def snap(step, t, fields):
        phys = problem.to_physical(fields)
        path = os.path.join(out_dir, f"{config.name}-step{step:06d}.cgls")
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
        "max_modulus": None if result.diverged else
        max(float(np.max(np.abs(u))) for u in physical),
    }
    if frozen_probe_steps and not result.diverged:
        probe = integrate(problem, config.scheme, result.fields,
                          result.tau * frozen_probe_steps,
                          frozen_probe_steps)
        if not probe.diverged:
            summary["frozen_modulus_drift"] = relative_modulus_drift(
                physical[0], problem.to_physical(probe.fields)[0])
    if out_dir:
        final_path = os.path.join(out_dir, f"{config.name}-final.cgls")
        write_snapshot(final_path, physical, reached, axes)
        written.append(final_path)
        with open(os.path.join(out_dir, f"{config.name}-summary.json"),
                  "w") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
    summary["snapshots"] = written
    return summary, physical
