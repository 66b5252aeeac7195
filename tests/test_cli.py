import json
import os
import subprocess
import sys

import pytest

from cglsolve import cli, experiments
from cglsolve.cli import main
from cglsolve.experiments import available_presets, config_to_dict, make_preset
from cglsolve.integrators import SCHEMES


def test_preset_list(capsys):
    assert main(["preset", "list"]) == 0
    out = capsys.readouterr().out
    for name in available_presets():
        assert name in out


def test_run_json_output(capsys):
    rc = main(["run", "--preset", "plane-wave-1d", "--steps", "10",
               "--format", "json"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["preset"] == "plane-wave-1d"
    assert summary["steps"] == 10
    assert summary["diverged"] is False


def test_run_flag_overrides(capsys):
    rc = main(["run", "--preset", "plane-wave-1d", "--steps", "8",
               "--tfinal", "0.5", "--grid", "32", "--scheme", "strang",
               "--format", "json"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["t_reached"] == pytest.approx(0.5)
    assert summary["extents"] == [32]
    assert summary["scheme"] == "strang"


def test_run_config_file(tmp_path, capsys):
    cfg = config_to_dict(make_preset("plane-wave-1d"))
    cfg["steps"] = 5
    cfg["extents"] = [48]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = main(["run", "--config", str(path), "--format", "json"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["steps"] == 5
    assert summary["extents"] == [48]


def test_sweep_writes_reports(tmp_path, capsys):
    rc = main(["sweep", "--preset", "plane-wave-1d", "--schemes", "strang",
               "--steps", "10,20", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "least-squares order strang" in out
    assert (tmp_path / "plane-wave-1d-sweep.csv").exists()
    mirror = json.loads((tmp_path / "plane-wave-1d-sweep.json").read_text())
    assert [r["steps"] for r in mirror] == [10, 20]


def test_sweep_stability_mode(capsys):
    rc = main(["sweep", "--preset", "cubic-2d-dirichlet", "--stability",
               "--schemes", "rk4,strang", "--steps", "10", "--format",
               "csv"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "rk4,10" in out and ",x" in out
    assert "strang,10" in out and ",ok" in out


def test_sweep_stability_json_rows_carry_diverged_at(capsys):
    rc = main(["sweep", "--preset", "cubic-2d-dirichlet", "--stability",
               "--schemes", "rk4,strang", "--steps", "10", "--format",
               "json"])
    assert rc == 0
    rk4, strang = json.loads(capsys.readouterr().out)
    assert rk4["status"] == "x" and rk4["diverged_at"] >= 1
    assert strang["status"] == "ok" and strang["diverged_at"] == 0


def test_missing_config_is_a_usage_error():
    with pytest.raises(SystemExit):
        main(["run", "--steps", "5"])


def _usage_error(argv, capsys):
    """Exit code and stderr of a run that must end as a usage error."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return exc.value.code, err


def test_library_value_error_is_a_usage_error(capsys):
    code, err = _usage_error(["run", "--preset", "plane-wave-1d", "--grid",
                              "8,8"], capsys)
    assert code == 2
    assert "one interval per direction required" in err


def test_advection_in_a_scalar_config_is_a_usage_error(tmp_path, capsys):
    # alpha0 of a scalar kind was once silently ignored
    params = config_to_dict(make_preset("cubic-2d-dirichlet"))["params"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"params": {**params, "alpha0": 5}}))
    code, err = _usage_error(["run", "--preset", "cubic-2d-dirichlet",
                              "--config", str(path)], capsys)
    assert code == 2
    assert err.count("error:") == 1
    assert err.splitlines()[-1] == (
        "cglsolve run: error: advection alpha0 needs the coupled kind")


def test_unknown_config_key_is_a_usage_error(tmp_path, capsys):
    cfg = config_to_dict(make_preset("plane-wave-1d"))
    cfg["stpes"] = 5
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, err = _usage_error(["run", "--config", str(path)], capsys)
    assert code == 2
    assert "stpes" in err


@pytest.mark.parametrize("key", ["name", "kind", "boundary", "params",
                                 "intervals", "extents", "t_final", "ic",
                                 "params.alpha1"])
def test_missing_config_key_is_a_usage_error(key, tmp_path, capsys):
    cfg = config_to_dict(make_preset("plane-wave-1d"))
    what, _, name = key.rpartition(".")
    del (cfg["params"] if what else cfg)[name]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, err = _usage_error(["run", "--config", str(path)], capsys)
    assert code == 2
    assert f"missing {what or 'config'} key(s): {name}" in err


@pytest.mark.parametrize("with_preset", [False, True])
def test_non_object_config_is_a_usage_error(with_preset, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2]")
    preset = ["--preset", "plane-wave-1d"] if with_preset else []
    code, err = _usage_error(["run", *preset, "--config", str(path)], capsys)
    assert code == 2
    assert "not a JSON object" in err


@pytest.mark.parametrize("key,value", [
    ("steps", 2.5), ("steps", "ten"), ("steps", True), ("t_final", "abc"),
    ("t_final", float("nan")), ("seed", "a"), ("scheme", 4),
    ("seed", 2.5), ("extents", [64.9]), ("extents", [True]),
    ("extents", 64), ("intervals", [[0.0, True]]),
    ("intervals", [[0.0, float("inf")]]), ("intervals", [[0.0, 1.0, 2.0]])])
def test_malformed_config_value_is_a_usage_error(key, value, tmp_path,
                                                 capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({key: value}))
    code, err = _usage_error(["run", "--preset", "plane-wave-1d",
                              "--config", str(path)], capsys)
    assert code == 2
    assert f"config key {key!r}" in err


@pytest.mark.parametrize("interval", [[100.0, 0.0], [5.0, 5.0]],
                         ids=["reversed", "empty"])
def test_an_empty_or_reversed_fd_interval_is_a_usage_error(interval, tmp_path,
                                                           capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"intervals": [interval, [0.0, 100.0]]}))
    code, err = _usage_error(["run", "--preset", "cubic-2d-dirichlet",
                              "--steps", "5", "--config", str(path)], capsys)
    assert code == 2
    assert "interval length must be positive and finite" in err


@pytest.mark.parametrize("key", ["ic_mode", "prerun_steps", "prerun_time",
                                 "prerun_extent"])
def test_recipe_constants_are_unknown_config_keys(key, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({key: 1}))
    code, err = _usage_error(["run", "--preset", "plane-wave-1d",
                              "--config", str(path)], capsys)
    assert code == 2
    assert f"unknown config key(s): {key}" in err


@pytest.mark.parametrize("flags", [
    ["--steps", "0"], ["--steps", "-2"], ["--tfinal", "-1"],
    ["--tfinal", "0"], ["--scheme", "strang_3t"], ["--scheme", "split4_3t"],
    {"scheme": "bogus"}], ids=["steps-0", "steps-neg", "tfinal-neg",
                                "tfinal-0", "strang_3t", "split4_3t",
                                "config-scheme"])
def test_a_bad_coupled_run_is_a_usage_error_before_its_pre_run(
        flags, tmp_path, capsys, monkeypatch):
    def no_state(config):
        raise AssertionError("the initial state was built")

    monkeypatch.setattr(experiments, "initial_state", no_state)
    if isinstance(flags, dict):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(flags))
        flags = ["--config", str(path)]
    code, _ = _usage_error(["run", "--preset", "coupled-2d-periodic"]
                           + flags, capsys)
    assert code == 2


@pytest.mark.parametrize("preset,cfg", [
    ("coupled-2d-periodic", {"intervals": [[0, 70]], "extents": [64]}),
    ("coupled-2d-periodic", {"intervals": [[0, 70]] * 3,
                             "extents": [16, 8, 8]}),
    ("cubic-2d-periodic", {"ic": "soliton_pair"})],
    ids=["coupled-1d", "coupled-3d", "scalar-2d"])
def test_a_soliton_pair_it_cannot_build_is_a_usage_error_before_its_pre_run(
        preset, cfg, tmp_path, capsys, monkeypatch):
    def no_prerun(*args):
        raise AssertionError("the pre-run was started")

    monkeypatch.setattr(experiments, "integrate", no_prerun)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, err = _usage_error(["run", "--preset", preset, "--config",
                              str(path)], capsys)
    # argparse's usage block, then one error line
    assert code == 2
    assert err.count("error:") == 1
    assert err.splitlines()[-1].startswith(
        "cglsolve run: error: soliton_pair initial state needs")


@pytest.mark.parametrize("command", [["run"], ["sweep", "--schemes", "if4"]],
                         ids=["run", "sweep"])
def test_a_diverged_coupled_pre_run_is_reported_on_one_line(command,
                                                            tmp_path, capsys):
    cfg = config_to_dict(make_preset("coupled-2d-periodic"))
    cfg["params"].update(alpha3=50.0, alpha4=0.0)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = main(command + ["--config", str(path), "--steps", "2"])
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    assert err.count("\n") == 1
    assert "pre-run diverged at step 2: non-finite state" in err


def test_bool_parameter_is_a_usage_error(tmp_path, capsys):
    params = config_to_dict(make_preset("plane-wave-1d"))["params"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"params": {**params, "alpha3": True}}))
    code, err = _usage_error(["run", "--preset", "plane-wave-1d",
                              "--config", str(path)], capsys)
    assert code == 2
    assert "parameter alpha3" in err


@pytest.mark.parametrize("snapshots,with_out", [("3", False), ("0,3", True),
                                                ("3,11", True),
                                                ("3,11", False)])
def test_bad_snapshot_request_is_a_usage_error(snapshots, with_out,
                                               tmp_path, capsys):
    out = ["--out", str(tmp_path / "out")] if with_out else []
    code, err = _usage_error(["run", "--preset", "plane-wave-1d", "--steps",
                              "10", "--snapshots", snapshots] + out, capsys)
    assert code == 2
    assert "--snapshots" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags", [["--steps", "0"], ["--tfinal", "-1"],
                                   ["--grid", "3,3"], ["--seed", "-1"]])
def test_a_run_rejected_by_the_library_makes_no_out_dir(flags, tmp_path,
                                                        capsys):
    out = tmp_path / "D"
    code, _ = _usage_error(["run", "--preset", "cubic-2d-dirichlet", "--out",
                            str(out)] + flags, capsys)
    assert code == 2
    assert not out.exists()


def test_a_step_too_large_for_the_exponential_is_a_usage_error(tmp_path):
    # -W error: no warning on the way to the usage error
    src = os.path.join(os.path.dirname(cli.__file__), os.pardir)
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "cglsolve.cli", "run",
         "--preset", "cubic-2d-dirichlet", "--tfinal", "1e308", "--steps",
         "1", "--out", str(tmp_path / "D")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "not finite" in proc.stderr
    assert not (tmp_path / "D").exists()


def test_a_sweep_whose_reference_diverges_exits_1_on_one_line():
    src = os.path.join(os.path.dirname(cli.__file__), os.pardir)
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "cglsolve.cli", "sweep", "--preset",
         "cubic-quintic-3d-periodic", "--steps", "1", "--schemes", "if4"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith(
        "cglsolve sweep: reference run if4 at 8 steps diverged at step ")
    assert proc.stdout == ""


def test_snapshots_written_where_asked(tmp_path, capsys):
    rc = main(["run", "--preset", "plane-wave-1d", "--steps", "10",
               "--snapshots", "1,10", "--out", str(tmp_path),
               "--format", "json"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert len(summary["snapshots"]) == 3  # two steps and the final state


@pytest.mark.parametrize("text", [None, "{not json", ""])
def test_unreadable_config_is_a_usage_error(text, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    if text is not None:
        path.write_text(text)
    code, err = _usage_error(["run", "--config", str(path)], capsys)
    assert code == 2
    assert f"--config {path}" in err


def test_sweep_json_output_is_json_alone(capsys):
    rc = main(["sweep", "--preset", "plane-wave-1d", "--schemes", "strang",
               "--steps", "10,20", "--format", "json"])
    assert rc == 0
    captured = capsys.readouterr()
    rows = json.loads(captured.out)
    assert [r["steps"] for r in rows] == [10, 20]
    assert "least-squares order strang" in captured.err


def _no_integrate(monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(experiments, "integrate", no_run)


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_a_name_with_a_path_separator_is_a_usage_error_before_any_run(
        command, tmp_path, capsys, monkeypatch):
    _no_integrate(monkeypatch)
    cfg = config_to_dict(make_preset("plane-wave-1d"))
    cfg["name"] = "a/b"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, err = _usage_error([command, "--config", str(path), "--out",
                              str(tmp_path / "out")], capsys)
    assert code == 2
    assert err.count("error:") == 1
    assert "config key 'name'" in err
    assert not (tmp_path / "out").exists()


def test_a_coupled_sweep_runs_by_default_the_schemes_its_kind_runs(
        capsys):
    # the exact _3t splits leave out the cross term: the default list
    # skips them, and naming one is a usage error
    sweep = ["sweep", "--preset", "coupled-2d-periodic", "--stability",
             "--steps", "2"]
    assert main(sweep + ["--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["scheme"] for r in rows] == sorted(
        s for s in SCHEMES if not s.endswith("_3t"))
    code, err = _usage_error(sweep + ["--schemes", "strang_3t"], capsys)
    assert code == 2
    assert "coupled cross term" in err


def test_sweep_unknown_scheme_is_a_usage_error_before_any_run(capsys,
                                                              monkeypatch):
    _no_integrate(monkeypatch)
    code, err = _usage_error(["sweep", "--preset", "plane-wave-1d",
                              "--stability", "--schemes", "strang,warp",
                              "--steps", "10"], capsys)
    assert code == 2
    assert "unknown scheme 'warp'" in err


@pytest.mark.parametrize("schemes", ["", ",", " , "])
def test_sweep_empty_schemes_is_a_usage_error_before_any_run(schemes, capsys,
                                                             monkeypatch):
    # an empty --schemes is not the default list
    _no_integrate(monkeypatch)
    code, err = _usage_error(["sweep", "--preset", "plane-wave-1d",
                              "--steps", "4", "--schemes", schemes,
                              "--stability"], capsys)
    assert code == 2
    assert "need at least one scheme" in err


def test_sweep_repeated_scheme_runs_once(capsys):
    assert main(["sweep", "--preset", "plane-wave-1d", "--steps", "4",
                 "--schemes", "if4,if4", "--stability", "--format",
                 "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [(r["scheme"], r["steps"]) for r in rows] == [("if4", 4)]


def test_sweep_zero_steps_is_a_usage_error_before_any_run(tmp_path, capsys,
                                                          monkeypatch):
    _no_integrate(monkeypatch)
    code, err = _usage_error(["sweep", "--preset", "plane-wave-1d",
                              "--steps", "0,10", "--out",
                              str(tmp_path / "out")], capsys)
    assert code == 2
    assert "step count" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,under", [
    (["run", "--steps", "2"], False), (["run", "--steps", "2"], True),
    (["sweep", "--schemes", "strang", "--steps", "10"], False),
    (["sweep", "--stability", "--schemes", "strang", "--steps", "10"], True),
], ids=["run-file", "run-under-file", "sweep-file", "sweep-under-file"])
def test_out_that_is_a_file_is_a_usage_error_before_any_run(
        command, under, tmp_path, capsys, monkeypatch):
    _no_integrate(monkeypatch)
    afile = tmp_path / "afile"
    afile.write_text("keep\n")
    out = afile / "sub" if under else afile
    code, err = _usage_error([command[0], "--preset", "plane-wave-1d",
                              *command[1:], "--out", str(out)], capsys)
    assert code == 2
    assert f"{afile} exists and is not a directory" in err
    assert afile.read_text() == "keep\n"


def test_run_table_output(capsys):
    rc = main(["run", "--preset", "plane-wave-1d", "--steps", "10"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "preset: plane-wave-1d" in out
    assert "diverged: False" in out


def test_seed_flag_reaches_the_config(monkeypatch):
    seen = []

    def record(config, **kwargs):
        seen.append(config)
        return {"diverged": False}, ()

    monkeypatch.setattr(cli, "run_preset", record)
    main(["run", "--preset", "cubic-2d-periodic", "--seed", "7",
          "--format", "json"])
    assert seen[0].seed == 7
