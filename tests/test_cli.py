import json

import pytest

from cglsolve import cli
from cglsolve.cli import main
from cglsolve.experiments import available_presets, config_to_dict, make_preset


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
    ("t_final", float("nan")), ("ic_mode", "a"), ("scheme", 4),
    ("prerun_time", None), ("extents", [64.9]), ("extents", [True]),
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


def test_bool_parameter_is_a_usage_error(tmp_path, capsys):
    params = config_to_dict(make_preset("plane-wave-1d"))["params"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"params": {**params, "alpha3": True}}))
    code, err = _usage_error(["run", "--preset", "plane-wave-1d",
                              "--config", str(path)], capsys)
    assert code == 2
    assert "parameter alpha3" in err


@pytest.mark.parametrize("probe", ["-3", "2.5"])
def test_bad_frozen_probe_is_a_usage_error_before_any_work(probe, capsys,
                                                           monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "run_preset", no_run)
    code, err = _usage_error(["run", "--preset", "plane-wave-1d",
                              "--frozen-probe", probe], capsys)
    assert code == 2
    assert "--frozen-probe" in err


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
