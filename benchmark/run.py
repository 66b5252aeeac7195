"""End-to-end and per-layer benchmark of cglsolve at paper resolution.

Usage (from the repository root)::

    python3 benchmark/run.py --workload fd3d --seed 1 --seconds 25 --trace 0

A run repeats *solves* of one workload (``workloads.py``) until
``--seconds`` have passed, at least three with ``--trace 0``. A solve makes
the public calls ``run_preset`` makes: ``build_problem``,
``initial_state``, ``Problem.from_physical``, ``integrate`` (every step
reported through ``on_snapshot``, for step timestamps),
``Problem.to_physical`` and ``write_snapshot``, then reads the snapshot
back. Every solve is checked: finite, not diverged, max modulus and
discrete L2 norm of each component within ``references.json``, and the
snapshot read back bit for bit.

``--trace 0`` reports the end-to-end metrics, medians over the solves:
``wall_s`` (one solve), ``setup_s`` (build, initial state with any
pre-run, forward transform, and the part of ``integrate`` before its
loop), ``step_s_p50``, ``output_s`` (``to_physical``, write and read-back
of the final state), ``preset_run_s`` (``setup_s + preset_steps *
step_s_p50 + output_s``, the full preset's time to solution) and
``peak_rss_mb``.

``--trace 1`` spends half the time on untraced solves and half on traced
ones (``tracing.py``) and reports the per-layer table per traced solve,
with ``trace.overhead_s`` = traced minus untraced median solve time. The
traced solves also fail when the per-step call counts differ from those
the scheme implies.

The last stdout line is the result object; the full record, with
machine and build information, goes to ``benchmark/results/``.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import struct
import sys
import tempfile
import time
import traceback
from collections import Counter
from importlib import metadata

import numpy as np

from tracing import Tracer, installed
from workloads import LOOP_LAYERS, WORKLOADS, make_config

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
MIN_SOLVES = 3
P90_MIN_STEPS = 100

# layer -> reported fields, in report order
LAYERS = {
    "tensors.tucker_apply": ("calls", "s", "gflop"),
    "flows.cubic_flow": ("calls", "s"),
    "flows.quintic_flow": ("calls", "s"),
    "flows.eval_g": ("calls", "s"),
    "spectral.dft_forward": ("calls", "s"),
    "spectral.dft_inverse": ("calls", "s"),
    "spectral.pointwise_apply": ("calls", "s"),
    "operators.exp_apply": ("calls", "self_s"),
    "integrators.step": ("calls", "self_s"),
    "linalg.expm_pade": ("calls", "s"),
    "operators.prepare": ("calls", "s"),
    "spectral.symbol_exponential": ("calls", "s"),
    "rng.normal_tensor": ("calls", "s"),
    "experiments.prerun": ("s",),
    "io.write_snapshot": ("calls", "s", "mb"),
    "io.read_snapshot": ("calls", "s"),
}
# field -> (tracer attribute, unit, scale)
FIELDS = {"calls": ("calls", "count", 1), "s": ("seconds", "s", 1.0),
          "self_s": ("self_seconds", "s", 1.0),
          "gflop": ("work", "GFLOP", 1e-9), "mb": ("work", "MB", 1.0)}


def load_library():
    """Import cglsolve from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "cglsolve", "__init__.py")):
        sys.exit("benchmark: no cglsolve sources under src/ in this "
                 "checkout")
    sys.path.insert(0, SRC)
    import cglsolve
    import cglsolve.experiments
    import cglsolve.integrators
    import cglsolve.io
    import cglsolve.operators
    return cglsolve


def load_references():
    with open(os.path.join(HERE, "references.json")) as fh:
        return json.load(fh)


def norms(config, fields):
    """(max modulus, discrete L2 norm) per component."""
    cell = float(np.prod([(b - a) / n for (a, b), n
                          in zip(config.intervals, config.extents)]))
    return [{"max_modulus": float(np.max(np.abs(u))),
             "l2": float(np.linalg.norm(u)) * cell ** 0.5} for u in fields]


def check_output(reference, config, result, physical, back, written_t,
                 read_t):
    """Reasons the final state or its snapshot is wrong (empty if none)."""
    if result.diverged:
        return [f"diverged at step {result.diverged_at}: {result.reason}"]
    if not all(np.all(np.isfinite(u)) for u in physical):
        return ["non-finite final state"]
    problems = []
    measured = norms(config, physical)
    if len(measured) != len(reference["components"]):
        problems.append("wrong number of components")
    for i, (got, want) in enumerate(zip(measured, reference["components"])):
        for key, value in got.items():
            rtol = reference["rtol"][key]
            if not abs(value - want[key]) <= rtol * abs(want[key]):
                problems.append(f"component {i} {key} {value!r} is not "
                                f"within {rtol} of {want[key]!r}")
    same = (read_t == written_t and len(back) == len(physical)
            and all(a.shape == b.shape and a.dtype == b.dtype
                    and a.tobytes() == b.tobytes()
                    for a, b in zip(back, physical)))
    if not same:
        problems.append("snapshot read back differs from the state written")
    return problems


def check_counts(workload, phase_calls):
    """Reasons the traced per-step call counts differ from the scheme's."""
    problems = []
    expected = [("loop", layer, workload.steps
                 * workload.loop_calls.get(layer, 0))
                for layer in LOOP_LAYERS]
    expected += [("prerun", layer, count)
                 for layer, count in workload.prerun_calls.items()]
    for phase, layer, want in expected:
        got = phase_calls[phase, layer]
        if got != want:
            problems.append(f"{phase} {layer}: {got} calls, expected {want}")
    return problems


def solve(lib, workload, seed, reference, snap_dir, index, tracer=None):
    """One truncated preset run, end to end; returns its timings."""
    exp, integ, io = lib.experiments, lib.integrators, lib.io
    if tracer is not None:
        tracer.phase = "setup"
        calls_before = Counter(tracer.phase_calls)
    start = time.perf_counter()
    config = make_config(exp, workload, seed)
    problem = exp.build_problem(config)
    state0 = problem.from_physical(exp.initial_state(config))
    built = time.perf_counter()
    stamps = []
    result = integ.integrate(
        problem, config.scheme, state0, config.t_final, config.steps,
        snapshot_steps=range(1, config.steps + 1),
        on_snapshot=lambda k, t, fields: stamps.append(time.perf_counter()))
    stepped = time.perf_counter()
    if tracer is not None:
        tracer.phase = "output"
    physical = problem.to_physical(result.fields)
    path = os.path.join(snap_dir, f"{workload.name}-{index}.cgls")
    written_t = result.tau * result.steps
    io.write_snapshot(path, physical, written_t, exp.grid_axes(config))
    back, read_t = io.read_snapshot(path)
    end = time.perf_counter()
    os.remove(path)
    os.remove(path + ".grid.txt")

    problems = check_output(reference, config, result, physical, back,
                            written_t, read_t)
    if tracer is not None:
        problems += check_counts(workload,
                                 tracer.phase_calls - calls_before)
    steps = []
    if stamps:
        # the first step ends at the first stamp; the loop starts
        # result.seconds before the last one
        steps = [result.seconds - (stamps[-1] - stamps[0])]
        steps += [b - a for a, b in zip(stamps, stamps[1:])]
    return {"wall_s": end - start,
            "setup_s": (built - start) + (stepped - built - result.seconds),
            "loop_s": result.seconds,
            "output_s": end - stepped,
            "steps": steps,
            "problems": problems}


def run_solves(lib, workload, seed, reference, snap_dir, until, minimum,
               tracer=None):
    """Solves until the deadline leaves no room for another (>= minimum).

    Returns the completed solves and the number that raised.
    """
    solves, crashed = [], 0
    while len(solves) + crashed < minimum or (
            solves and time.perf_counter() + statistics.median(
                s["wall_s"] for s in solves) <= until):
        index = len(solves) + crashed
        try:
            record = solve(lib, workload, seed, reference, snap_dir, index,
                           tracer)
        except Exception:  # a broken solve is a failed attempt, not a crash
            traceback.print_exc()
            crashed += 1
            continue
        for problem in record["problems"]:
            print(f"{workload.name} solve {index}: {problem}",
                  file=sys.stderr)
        solves.append(record)
    return solves, crashed


def end_to_end(workload, solves):
    steps = [t for s in solves for t in s["steps"]]
    metrics = {name: statistics.median(s[name] for s in solves)
               for name in ("wall_s", "setup_s", "output_s")}
    metrics["step_s_p50"] = statistics.median(steps)
    metrics["preset_run_s"] = (metrics["setup_s"] + workload.preset_steps
                               * metrics["step_s_p50"]
                               + metrics["output_s"])
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    units = {"peak_rss_mb": "MB"}
    extra = {"step_samples": len(steps)}
    if len(steps) >= P90_MIN_STEPS:
        extra["step_s_p90"] = statistics.quantiles(steps, n=10)[-1]
    return ({k: {"value": v, "unit": units.get(k, "s")}
             for k, v in metrics.items()}, extra)


def per_layer(workload, tracer, traced_solves, untraced_solves):
    n = len(traced_solves)
    metrics = {}
    for layer, fields in LAYERS.items():
        for field in fields:
            attr, unit, scale = FIELDS[field]
            total = getattr(tracer, attr)[layer]
            value = total // n if field == "calls" else total * scale / n
            metrics[f"{layer}.{field}"] = {"value": value, "unit": unit}
    overhead = (statistics.median(s["wall_s"] for s in traced_solves)
                - statistics.median(s["wall_s"] for s in untraced_solves))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    steps = n * workload.steps
    extra = {"loop_calls_per_step": {
        layer: tracer.phase_calls["loop", layer] / steps
        for layer in LOOP_LAYERS},
        "prerun_calls": {layer: tracer.phase_calls["prerun", layer] / n
                         for layer in LOOP_LAYERS}}
    return metrics, extra


def blas_threads():
    """OpenBLAS thread count from the library numpy loaded, if found."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir,
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def filesystem_kind(path):
    """'tmpfs' for a memory-backed directory, else 'disk' (Linux statfs)."""
    libc = ctypes.CDLL(None, use_errno=True)
    buf = ctypes.create_string_buffer(256)
    if libc.statfs(os.fsencode(path), buf) != 0:
        return "unknown"
    f_type = struct.unpack_from("l", buf)[0]
    return "tmpfs" if f_type in (0x01021994, 0x858458F6) else "disk"


def src_lines():
    total = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    return total


def version_of(package):
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def machine_info(snap_dir):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": version_of("scipy"),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(),
            "fft": f"numpy.fft (pocketfft) {np.__version__}",
            "snapshot_dir_kind": filesystem_kind(snap_dir),
            "src_lines": src_lines()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    lib = load_library()
    workload = WORKLOADS[args.workload]
    reference = load_references()[workload.name]

    os.makedirs(RESULTS, exist_ok=True)
    snap_dir = tempfile.mkdtemp(prefix="snapshots-", dir=RESULTS)
    start = time.perf_counter()
    deadline = start + args.seconds
    metrics = None
    try:
        info = machine_info(snap_dir)
        if args.trace:
            untraced, crashed = run_solves(
                lib, workload, args.seed, reference, snap_dir,
                start + args.seconds / 2, 1)
            tracer = Tracer()
            with installed(lib, tracer):
                traced, crashed_traced = run_solves(
                    lib, workload, args.seed, reference, snap_dir,
                    deadline, 1, tracer)
            solves, crashed = untraced + traced, crashed + crashed_traced
            if untraced and traced:
                metrics, extra = per_layer(workload, tracer, traced,
                                           untraced)
        else:
            solves, crashed = run_solves(lib, workload, args.seed,
                                         reference, snap_dir, deadline,
                                         MIN_SOLVES)
            if solves:
                metrics, extra = end_to_end(workload, solves)
    finally:
        shutil.rmtree(snap_dir, ignore_errors=True)
    if metrics is None:
        sys.exit(f"benchmark: too few solves of {workload.name} completed")

    attempted = len(solves) + crashed
    failed = crashed + sum(1 for s in solves if s["problems"])
    record = {"workload": workload.name, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "solve_steps": workload.steps,
              "preset_steps": workload.preset_steps,
              "attempted": attempted, "failed": failed,
              "failed_frac": failed / attempted,
              "metrics": metrics, "extra": extra, "machine": info,
              "solves": solves}
    out = os.path.join(RESULTS, f"{workload.name}-seed{args.seed}"
                                f"-trace{args.trace}.json")
    with open(out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    for name, m in metrics.items():
        print(f"{workload.name:>13} {name:<36} {m['value']:.6g} {m['unit']}")
    print(f"record: {os.path.relpath(out, ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
