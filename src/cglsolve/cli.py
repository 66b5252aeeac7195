"""Command line: ``cglsolve preset|run|sweep``; the README shows each.

Flags override a --config file, which overrides the preset. Exit codes:
0 on success, 1 for a run that diverged (or a coupled pre-run, or a
sweep's reference runs that diverged or disagree, each reported on one
line), 2 for a usage error, which includes every ValueError the library
raises on invalid input. Output directories are made only when
a file is written.
"""

import argparse
import json
import sys

from .experiments import (ReferenceMismatch, available_presets,
                          checked_snapshot_request, config_from_dict,
                          config_to_dict, make_preset, run_convergence_study,
                          run_preset)
from .flows import DivergenceError, NonlinearSpec
from .integrators import SCHEMES, _fits
from .io import write_csv

_DEFAULT_LADDER = "12,17,24,34,48"


def _ints(text):
    return [int(x) for x in text.split(",") if x.strip()]


def _common_config_flags(sub):
    sub.add_argument("--preset", choices=available_presets(),
                     help="start from this named setup")
    sub.add_argument("--config", metavar="FILE",
                     help="JSON file with config fields (overrides preset)")
    sub.add_argument("--paper-scale", action="store_true",
                     help="use the full benchmark resolution")
    sub.add_argument("--grid", metavar="N1,N2,...",
                     help="grid extents per direction")
    sub.add_argument("--tfinal", type=float, help="final time")
    sub.add_argument("--seed", type=int, help="RNG seed for random data")
    sub.add_argument("--out", metavar="DIR", help="write outputs here")


def _resolve_config(args, parser, **flags):
    """The checked config of the preset, then the --config file, then
    the common flags and the given flags that are not None."""
    base = None
    if args.preset:
        base = config_to_dict(make_preset(args.preset, args.paper_scale))
    if args.config:
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except (OSError, ValueError) as err:
            parser.error(f"--config {args.config}: {err}")
        if not isinstance(data, dict):
            parser.error(f"--config {args.config}: not a JSON object")
        base = data if base is None else {**base, **data}
    if base is None:
        parser.error("either --preset or --config is required")
    flags.update(extents=_ints(args.grid) if args.grid else None,
                 t_final=args.tfinal, seed=args.seed)
    base.update((k, v) for k, v in flags.items() if v is not None)
    return config_from_dict(base)


def _print_rows(rows, fmt, stream):
    if fmt == "json":
        json.dump(rows, stream, indent=2)
        stream.write("\n")
        return
    if fmt == "csv":
        write_csv(stream, rows)
        return
    stream.write("%-11s %6s %10s %9s %12s %7s %6s\n" % (
        "scheme", "steps", "tau", "seconds", "rel_err", "order", "status"))
    for r in rows:
        stream.write("%-11s %6d %10.4g %9.3f %12s %7s %6s\n" % (
            r["scheme"], r["steps"], r["tau"], r["seconds"],
            "---" if r["rel_err"] is None else "%.4e" % r["rel_err"],
            "---" if r["observed_order"] is None else
            "%.3f" % r["observed_order"],
            r["status"]))


def _cmd_preset(args, parser):
    for name in available_presets():
        cfg = make_preset(name, args.paper_scale)
        print("%-28s %-22s %-18s extents=%s T=%g" % (
            name, cfg.kind, cfg.boundary, "x".join(map(str, cfg.extents)),
            cfg.t_final))
    return 0


def _cmd_run(args, parser):
    config = _resolve_config(args, parser, scheme=args.scheme,
                             steps=args.steps)
    try:
        snapshots = checked_snapshot_request(_ints(args.snapshots or ""),
                                             config.steps, args.out)
    except ValueError as err:
        parser.error(f"--snapshots: {err}")
    summary, _ = run_preset(config, snapshot_steps=snapshots,
                            out_dir=args.out)
    if args.format == "json":
        json.dump(summary, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        for key, value in summary.items():
            print(f"{key}: {value}")
    return 1 if summary["diverged"] else 0


def _cmd_sweep(args, parser):
    config = _resolve_config(args, parser)
    components = NonlinearSpec(config.kind, config.params).components
    # an explicit --schemes, even an empty one, is the list to run
    schemes = ([s.strip() for s in args.schemes.split(",") if s.strip()]
               if args.schemes is not None
               else [s for s in sorted(SCHEMES)
                     if _fits(SCHEMES[s], components)])
    ladder = _ints(args.steps)
    rows, meta = run_convergence_study(config, schemes, ladder,
                                       errors=not args.stability,
                                       out_dir=args.out)
    _print_rows(rows, args.format, sys.stdout)
    # csv and json keep stdout machine-readable
    notes = sys.stdout if args.format == "table" else sys.stderr
    if meta.get("orders"):
        print("reference:", meta["reference"], file=notes)
        for scheme, order in sorted(meta["orders"].items()):
            print("  least-squares order %-11s %.3f" % (scheme, order),
                  file=notes)
    if args.out:
        csv_path, json_path = meta["report"]
        print("wrote", csv_path, "and", json_path, file=notes)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="cglsolve",
        description="Exponential-integrator benchmarks for complex "
                    "Ginzburg-Landau equations")
    sub = parser.add_subparsers(dest="command", required=True)

    p_preset = sub.add_parser("preset", help="inspect built-in setups")
    p_preset.add_argument("action", choices=["list"])
    p_preset.add_argument("--paper-scale", action="store_true")
    p_preset.set_defaults(func=_cmd_preset, parser=p_preset)

    p_run = sub.add_parser("run", help="integrate one setup")
    _common_config_flags(p_run)
    p_run.add_argument("--scheme", choices=sorted(SCHEMES))
    p_run.add_argument("--steps", type=int, help="number of time steps")
    p_run.add_argument("--snapshots", metavar="I,J,...",
                       help="1-based step indices to snapshot (needs --out)")
    p_run.add_argument("--format", choices=["table", "json"],
                       default="table")
    p_run.set_defaults(func=_cmd_run, parser=p_run)

    # no abbreviations: --scheme, a run flag, would be taken for --schemes
    p_sweep = sub.add_parser("sweep", help="convergence or stability sweep",
                             allow_abbrev=False)
    _common_config_flags(p_sweep)
    p_sweep.add_argument("--schemes", metavar="S1,S2,...",
                         help="comma-separated scheme names (default: "
                         "all that the problem's kind runs)")
    p_sweep.add_argument("--steps", default=_DEFAULT_LADDER,
                         metavar="M1,M2,...", help="step-count ladder")
    p_sweep.add_argument("--stability", action="store_true",
                         help="skip the reference and errors; only "
                         "record which runs survive")
    p_sweep.add_argument("--format", choices=["table", "csv", "json"],
                         default="table")
    p_sweep.set_defaults(func=_cmd_sweep, parser=p_sweep)

    args = parser.parse_args(argv)
    try:
        return args.func(args, args.parser)
    except ValueError as err:
        # the library rejects invalid input with ValueError: a usage error
        args.parser.error(str(err))
    except (DivergenceError, ReferenceMismatch) as err:
        # a run that diverges returns its report; this is set-up diverging
        # or a sweep's reference runs failing
        print(f"{args.parser.prog}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
