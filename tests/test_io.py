import json
import struct

import numpy as np
import pytest

from cglsolve.io import read_snapshot, write_report, write_snapshot

from oracles import random_complex


def _draw(shape, seed):
    return random_complex(np.random.default_rng(seed), shape)


def test_snapshot_round_trip_is_bitwise(tmp_path):
    u = _draw((6, 5), 11)
    v = _draw((6, 5), 12)
    grids = [np.linspace(0.0, 1.0, 6), np.linspace(-2.0, 2.0, 5)]
    path = tmp_path / "state.cgls"
    write_snapshot(path, (u, v), 1.25, grids)
    fields, t = read_snapshot(path)
    assert t == 1.25
    assert len(fields) == 2
    assert fields[0].tobytes() == u.tobytes()
    assert fields[1].tobytes() == v.tobytes()


def test_snapshot_keeps_column_major_layout(tmp_path):
    # a transposed view must round-trip by value, not by accident of layout
    u = np.asfortranarray(_draw((4, 3), 3))
    path = tmp_path / "f.cgls"
    write_snapshot(path, (u,), 0.0, [np.arange(4.0), np.arange(3.0)])
    (back,), _ = read_snapshot(path)
    assert np.array_equal(back, u)


def test_snapshot_grid_sidecar(tmp_path):
    u = _draw((3, 4), 1)
    gx = np.array([0.0, 0.5, 1.0])
    gy = np.array([0.0, 0.25, 0.5, 0.75])
    path = tmp_path / "s.cgls"
    write_snapshot(path, (u,), 0.0, [gx, gy])
    lines = (tmp_path / "s.cgls.grid.txt").read_text().splitlines()
    assert len(lines) == 2
    assert [float(x) for x in lines[0].split()] == list(gx)
    assert [float(x) for x in lines[1].split()] == list(gy)


def test_snapshot_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.cgls"
    path.write_bytes(b"WAT?" + b"\x00" * 64)
    with pytest.raises(ValueError, match="magic"):
        read_snapshot(path)


def test_snapshot_rejects_an_unknown_version(tmp_path):
    path = tmp_path / "v.cgls"
    write_snapshot(path, (_draw((3,), 6),), 0.0, [np.arange(3.0)])
    data = path.read_bytes()
    path.write_bytes(data[:4] + struct.pack("<I", 99) + data[8:])
    with pytest.raises(ValueError, match="unsupported snapshot version 99"):
        read_snapshot(path)


def test_snapshot_rejects_trailing_bytes(tmp_path):
    u = _draw((3,), 5)
    path = tmp_path / "t.cgls"
    write_snapshot(path, (u,), 0.0, [np.arange(3.0)])
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ValueError, match="trailing"):
        read_snapshot(path)


@pytest.mark.parametrize("ncomp", [1, 2])
def test_snapshot_cut_at_any_byte_is_truncated(tmp_path, ncomp):
    path = tmp_path / "whole.cgls"
    write_snapshot(path, [_draw((3, 2), 8 + k) for k in range(ncomp)], 0.5,
                   [np.arange(3.0), np.arange(2.0)])
    whole = path.read_bytes()
    for size in range(len(whole)):
        # a fresh file per cut: shrinking one file in place can be slow
        cut = tmp_path / f"cut{size}.cgls"
        cut.write_bytes(whole[:size])
        with pytest.raises(ValueError, match="truncated snapshot"):
            read_snapshot(cut)


def test_snapshot_validates_shapes(tmp_path):
    u = _draw((3, 3), 6)
    w = _draw((3, 4), 7)
    with pytest.raises(ValueError):
        write_snapshot(tmp_path / "x.cgls", (u, w), 0.0,
                       [np.arange(3.0), np.arange(3.0)])
    with pytest.raises(ValueError):
        write_snapshot(tmp_path / "y.cgls", (u,), 0.0, [np.arange(3.0)])
    with pytest.raises(ValueError):
        write_snapshot(tmp_path / "z.cgls", (u,), 0.0,
                       [np.arange(3.0), np.arange(4.0)])


def test_report_csv_and_json_mirror(tmp_path):
    rows = [
        {"scheme": "strang", "steps": 10, "tau": 0.1, "seconds": 0.5,
         "rel_err": 1.5e-4, "observed_order": None, "status": "ok"},
        {"scheme": "rk4", "steps": 10, "tau": 0.1, "seconds": 0.2,
         "rel_err": None, "observed_order": None, "status": "x"},
    ]
    csv_path, json_path = write_report(tmp_path / "report", rows)
    text = open(csv_path).read().splitlines()
    assert text[0] == "scheme,steps,tau,seconds,rel_err,observed_order,status"
    assert text[1].startswith("strang,10,0.1,0.5,0.00015,")
    assert text[2] == "rk4,10,0.1,0.2,,,x"
    mirror = json.load(open(json_path))
    assert mirror == rows


def test_report_rejects_unknown_columns(tmp_path):
    with pytest.raises(ValueError, match="unknown report columns"):
        write_report(tmp_path / "r", [{"scheme": "s", "oops": 1}])
