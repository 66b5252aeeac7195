import builtins
import json
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cglsolve import io
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


@pytest.mark.parametrize("ncomp,time", [
    (0, 0.5), (1, float("nan")), (2, float("inf")), (1, -float("inf"))],
    ids=["no-components", "nan-time", "inf-time", "minus-inf-time"])
def test_snapshot_reader_refuses_what_the_writer_refuses(tmp_path, ncomp,
                                                         time):
    # a hand-built header without its payload: the header's values are
    # refused before the size check, so before any field is made
    path = tmp_path / "h.cgls"
    path.write_bytes(b"CGLS" + struct.pack("<IIQdI", 1, 1, 3, time, ncomp))
    with pytest.raises(ValueError, match="a component and a finite time"):
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


def _earlier_snapshot(tmp_path):
    """A snapshot at s.cgls and {file name: bytes} of the directory."""
    path = tmp_path / "s.cgls"
    write_snapshot(path, (_draw((4, 3), 21),), 0.5,
                   [np.arange(4.0), np.arange(3.0)])
    return path, {p.name: p.read_bytes() for p in tmp_path.iterdir()}


class _DiskFull:
    """A binary file that takes `budget` bytes, then fails mid-write."""

    def __init__(self, fh, budget):
        self.fh, self.budget = fh, budget

    def write(self, data):
        data = memoryview(data).cast("B")
        self.fh.write(data[:self.budget])
        if data.nbytes > self.budget:
            raise OSError(28, "No space left on device")
        self.budget -= data.nbytes

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@pytest.mark.parametrize("budget", [0, 30, 100])
def test_failed_payload_write_keeps_the_earlier_snapshot(tmp_path,
                                                         monkeypatch,
                                                         budget):
    path, before = _earlier_snapshot(tmp_path)

    def failing_open(name, mode="r", *args, **kwargs):
        fh = builtins.open(name, mode, *args, **kwargs)
        return _DiskFull(fh, budget) if "b" in mode else fh

    monkeypatch.setattr(io, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="No space"):
        write_snapshot(path, (_draw((5, 2), 22),), 1.0,
                       [np.arange(5.0), np.arange(2.0)])
    monkeypatch.undo()
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    (back,), t = read_snapshot(path)
    assert t == 0.5 and back.shape == (4, 3)


def test_failed_sidecar_write_keeps_the_earlier_snapshot(tmp_path):
    path, before = _earlier_snapshot(tmp_path)
    with pytest.raises(ValueError):
        # the payload is complete when the last coordinate fails
        write_snapshot(path, (_draw((3, 2), 23),), 1.0,
                       [np.arange(3.0), ["0", "1e-3j"]])
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


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


@pytest.mark.parametrize("fields,time,match", [
    ((), 0.0, "at least one component"),
    ((np.zeros(3, complex),), float("nan"), "finite"),
    ((np.zeros(3, complex),), float("inf"), "finite"),
], ids=["no-components", "nan-time", "inf-time"])
def test_snapshot_rejects_bad_input_before_any_file(tmp_path, fields, time,
                                                    match):
    grids = [np.arange(3.0)] if fields else []
    with pytest.raises(ValueError, match=match):
        write_snapshot(tmp_path / "x.cgls", fields, time, grids)
    assert list(tmp_path.iterdir()) == []


@settings(max_examples=40, deadline=None)
@given(data=st.data(),
       shape=st.lists(st.integers(1, 5), min_size=1, max_size=3).map(tuple),
       ncomp=st.integers(1, 3),
       time=st.floats(allow_nan=False, allow_infinity=False),
       fortran=st.booleans())
def test_snapshots_round_trip_bit_for_bit(data, shape, ncomp, time, fortran):
    fields = [data.draw(hnp.arrays(np.complex128, shape))
              for _ in range(ncomp)]
    if fortran:
        fields = [np.asfortranarray(u) for u in fields]
    grids = [np.linspace(0.0, 1.0, n) for n in shape]
    with tempfile.TemporaryDirectory() as where:
        path = os.path.join(where, "state.cgls")
        write_snapshot(path, fields, time, grids)
        back, t = read_snapshot(path)
    assert struct.pack("<d", t) == struct.pack("<d", time)
    assert len(back) == ncomp
    for got, want in zip(back, fields):
        assert got.shape == shape
        assert got.tobytes("F") == want.tobytes("F")


def test_report_csv_and_json_mirror(tmp_path):
    rows = [
        {"scheme": "strang", "steps": 10, "tau": 0.1, "seconds": 0.5,
         "rel_err": 1.5e-4, "observed_order": None, "status": "ok",
         "diverged_at": 0},
        {"scheme": "rk4", "steps": 10, "tau": 0.1, "seconds": 0.2,
         "rel_err": None, "observed_order": None, "status": "x",
         "diverged_at": 3},
    ]
    csv_path, json_path = write_report(tmp_path / "report", rows)
    text = open(csv_path).read().splitlines()
    assert text[0] == ("scheme,steps,tau,seconds,rel_err,observed_order,"
                       "status,diverged_at")
    assert text[1].startswith("strang,10,0.1,0.5,0.00015,")
    assert text[2] == "rk4,10,0.1,0.2,,,x,3"
    mirror = json.load(open(json_path))
    assert mirror == rows


def test_report_rejects_unknown_columns(tmp_path):
    with pytest.raises(ValueError, match="unknown report columns"):
        write_report(tmp_path / "r", [{"scheme": "s", "oops": 1}])


def _earlier_report(tmp_path, rows):
    write_report(tmp_path / "r", rows)
    return {p.name: p.read_bytes() for p in tmp_path.iterdir()}


_ROWS = [{"scheme": "if4", "steps": 10, "tau": 0.1, "seconds": 0.5,
          "rel_err": 1e-6, "observed_order": None, "status": "ok",
          "diverged_at": 0}]


@pytest.mark.parametrize("budget", [0, 20])
def test_failed_report_csv_write_keeps_the_earlier_report(tmp_path,
                                                         monkeypatch,
                                                         budget):
    before = _earlier_report(tmp_path, _ROWS)

    def failing_open(name, mode="r", *args, **kwargs):
        fh = builtins.open(name, mode, *args, **kwargs)
        return _DiskFull(fh, budget) if "b" in mode else fh

    monkeypatch.setattr(io, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="No space"):
        write_report(tmp_path / "r", _ROWS * 2)
    monkeypatch.undo()
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_failed_report_json_write_keeps_the_earlier_report(tmp_path):
    before = _earlier_report(tmp_path, _ROWS)
    with pytest.raises(TypeError):
        # the csv is complete when the mirror meets a value json cannot hold
        write_report(tmp_path / "r", [{**_ROWS[0], "seconds": object()}])
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_report_makes_its_directory(tmp_path):
    csv_path, json_path = write_report(tmp_path / "a" / "b" / "r", _ROWS)
    assert json.load(open(json_path)) == _ROWS
    assert open(csv_path, newline="").read().endswith("ok,0\r\n")
