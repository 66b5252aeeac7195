"""tools/bench_fold.py on two synthetic trees of benchmark records."""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_fold.py"
MACHINE = {"nproc": 2, "blas": "test-blas"}


def _tree(root, runs):
    """A tree whose benchmark/results/ holds one --trace 0 record per
    (workload, seed, metrics) in runs, and two traced fd3d records."""
    results = root / "benchmark" / "results"
    results.mkdir(parents=True)
    (root / "src" / "cglsolve").mkdir(parents=True)
    (root / "src" / "cglsolve" / "mod.py").write_text(
        '"""Doc."""\n\n# comment\nx = 1\ny = (x,\n     2)\n')
    for workload, seed, values in runs:
        record = {"workload": workload, "seed": seed, "trace": 0,
                  "attempted": 4, "failed": 1 if seed == 2 else 0,
                  "machine": MACHINE,
                  "metrics": {k: {"value": v, "unit": "s"}
                              for k, v in values.items()}}
        (results / f"{workload}-seed{seed}-trace0.json").write_text(
            json.dumps(record))
    for seed, calls in ((3, 30), (1, 29)):
        (results / f"fd3d-seed{seed}-trace1.json").write_text(json.dumps(
            {"workload": "fd3d", "seed": seed, "trace": 1, "metrics": {
                "tensors.tucker_apply.calls": {"value": calls,
                                               "unit": "count"}}}))
    return root


def _fold(*args):
    proc = subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_a_fold_gives_quartiles_and_the_paired_comparison(tmp_path):
    change = _tree(tmp_path / "change", [
        ("fd3d", seed, {"step_s_p50": step, "wall_s": 10.0})
        for seed, step in zip((1, 2, 3, 4, 5), (0.25, 0.26, 0.27, 0.28,
                                                0.40))])
    parent = _tree(tmp_path / "parent", [
        ("fd3d", seed, {"step_s_p50": step, "wall_s": wall})
        for seed, step, wall in zip((1, 2, 3, 4, 6),
                                    (0.36, 0.38, 0.25, 0.33, 0.9),
                                    (5.0, 10.0, 20.0, 11.0, 1.0))])
    out = tmp_path / "BENCH.json"
    _fold("--tree", change, "--against", parent, "--out", out)
    bench = json.loads(out.read_text())
    assert bench["machine"] == MACHINE
    assert bench["tree"] == {"commit": None, "dirty": None,
                             "src_code_lines": 3}
    fd3d = bench["workloads"]["fd3d"]
    assert fd3d["seeds"] == [1, 2, 3, 4, 5]
    assert fd3d["failed_frac"] == pytest.approx(1 / 20)
    assert fd3d["metrics"]["step_s_p50"] == {
        "unit": "s", "n": 5, "median": 0.27, "q1": 0.26, "q3": 0.28}
    # the traced records are not end-to-end ones; seed 1's table is kept
    assert fd3d["layers"] == {"tensors.tucker_apply.calls": 29}
    # seeds 1-4 pair up; seed 5 and seed 6 have no partner
    paired = bench["against"]["workloads"]["fd3d"]
    assert paired["seeds"] == [1, 2, 3, 4]
    step = paired["metrics"]["step_s_p50"]
    assert step["pairs"] == 4 and step["pairs_lower"] == 3
    # differences -0.11, -0.12, +0.02, -0.05
    assert step["median_diff"] == pytest.approx(-0.08)
    assert step["parent"]["median"] == pytest.approx(0.345)
    assert step["median_diff_rel"] == pytest.approx(-0.08 / 0.345)
    assert step["bound"] == 0.25 and not step["unresolved"]
    # parent walls 5, 10, 20, 11 against 10 each: an IQR of 4.5 on a
    # median of 10.5 exceeds the bound of 0.25
    wall = paired["metrics"]["wall_s"]
    assert wall["parent"]["q3"] - wall["parent"]["q1"] == pytest.approx(4.5)
    assert wall["pairs_lower"] == 2 and wall["unresolved"]
    assert "setup_s" not in paired["metrics"]


def test_a_tree_without_records_is_a_usage_error(tmp_path):
    proc = subprocess.run([sys.executable, str(TOOL), "--tree",
                           str(tmp_path), "--out", str(tmp_path / "b.json")],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "no --trace 0 records" in proc.stderr
