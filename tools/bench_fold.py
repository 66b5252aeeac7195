"""Fold one tree's benchmark records into one ``BENCH_<n>.json`` file.

Reads the end-to-end records (``--trace 0``) that ``benchmark/run.py``
left in ``TREE/benchmark/results/`` and writes, per workload and per
end-to-end metric of ``BENCHMARK.json``, the median and quartiles over
the records (one per seed), with the records' machine block, the tree's
``src`` code lines (``tools/code_lines.py``) and its commit. A
workload's traced layer table (``--trace 1``) is copied as it is from
its record of the lowest seed, if there is one.

With ``--against PARENT`` it pairs these records with PARENT's records
of the same workload and seed. Per metric it writes the median of the
paired differences (this tree minus PARENT, also as a share of PARENT's
median) and how many pairs went lower. A metric whose PARENT
interquartile range, as a share of its median, exceeds the metric's
``BENCHMARK.json`` bound is flagged ``unresolved``: its spread hides a
change of the size the bound allows.

Run from the repository root; ``--tree`` defaults to this repository::

    python3 tools/bench_fold.py --out BENCH_<n>.json --against PARENT
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

from code_lines import code_lines

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), os.pardir))


def end_to_end_bounds():
    """{metric: bound} of the end-to-end metrics in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}


def read_records(tree, trace=0):
    """{workload: {seed: record}} of the tree's records of ``trace``."""
    records = {}
    pattern = os.path.join(tree, "benchmark", "results",
                           f"*-trace{trace}.json")
    for path in sorted(glob.glob(pattern)):
        with open(path) as fh:
            record = json.load(fh)
        records.setdefault(record["workload"], {})[record["seed"]] = record
    return records


def summary(values):
    """Median and quartiles (inclusive method) of one or more values."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4,
                                              method="inclusive")
    return {"n": len(values), "median": median, "q1": q1, "q3": q3}


def tree_info(tree):
    """The tree's commit, whether tracked files differ from it, and its
    src code lines; a tree outside git gives None for the first two."""
    def git(*args):
        try:
            return subprocess.run(["git", "-C", tree, *args], check=True,
                                  capture_output=True, text=True).stdout
        except (OSError, subprocess.CalledProcessError):
            return None

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    sources = glob.glob(os.path.join(tree, "src", "cglsolve", "*.py"))
    return {"commit": commit and commit.strip(),
            "dirty": None if status is None else bool(status.strip()),
            "src_code_lines": sum(code_lines(p) for p in sources)}


def fold(records, traced, bounds):
    """Per workload: its seeds, failed share, metric summaries and, if
    traced, the layer table of its lowest traced seed."""
    out = {}
    for workload, by_seed in sorted(records.items()):
        runs = [by_seed[s] for s in sorted(by_seed)]
        attempted = sum(r["attempted"] for r in runs)
        metrics = {}
        for name in bounds:
            found = [r["metrics"][name] for r in runs if name in r["metrics"]]
            if found:
                metrics[name] = {"unit": found[0]["unit"],
                                 **summary([m["value"] for m in found])}
        out[workload] = {
            "seeds": sorted(by_seed),
            "failed_frac": (sum(r["failed"] for r in runs) / attempted
                            if attempted else None),
            "metrics": metrics}
        if traced.get(workload):
            layers = traced[workload][min(traced[workload])]["metrics"]
            out[workload]["layers"] = {name: m["value"]
                                       for name, m in layers.items()}
    return out


def compare(records, parent, bounds):
    """Per workload present in both: the paired comparison per metric."""
    out = {}
    for workload in sorted(set(records) & set(parent)):
        seeds = sorted(set(records[workload]) & set(parent[workload]))
        if not seeds:
            continue
        metrics = {}
        for name, bound in bounds.items():
            pairs = [(records[workload][s]["metrics"][name]["value"],
                      parent[workload][s]["metrics"][name]["value"])
                     for s in seeds
                     if name in records[workload][s]["metrics"]
                     and name in parent[workload][s]["metrics"]]
            if not pairs:
                continue
            base = summary([p for _, p in pairs])
            diff = statistics.median(c - p for c, p in pairs)
            spread = base["q3"] - base["q1"]
            metrics[name] = {
                "parent": base,
                "median_diff": diff,
                "median_diff_rel": (diff / base["median"]
                                    if base["median"] else None),
                "pairs": len(pairs),
                "pairs_lower": sum(c < p for c, p in pairs),
                "bound": bound,
                "unresolved": spread > bound * abs(base["median"])}
        out[workload] = {"seeds": seeds, "metrics": metrics}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--tree", default=ROOT,
                        help="tree whose benchmark/results/ to fold")
    parser.add_argument("--against", metavar="PARENT",
                        help="tree whose records of the same seeds to "
                             "pair with")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    bounds = end_to_end_bounds()
    records = read_records(args.tree)
    if not records:
        parser.error(f"no --trace 0 records under {args.tree}")
    machine = next(r["machine"] for by_seed in records.values()
                   for r in by_seed.values())
    result = {"tree": tree_info(args.tree), "machine": machine,
              "workloads": fold(records, read_records(args.tree, 1),
                                bounds)}
    if args.against:
        parent = read_records(args.against)
        if not parent:
            parser.error(f"no --trace 0 records under {args.against}")
        result["against"] = {"tree": tree_info(args.against),
                             "workloads": compare(records, parent, bounds)}
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
