"""Binary state snapshots and sweep reports.

Snapshot layout (all little-endian):

    magic    4 bytes  b"CGLS"
    version  u32      currently 1
    order    u32      number of directions d
    extents  d * u64
    time     f64      simulation time of the state
    ncomp    u32      number of solution components
    payload  per component, extents-shaped complex values written
             first-index-fastest as (f64 re, f64 im) pairs

A text sidecar "<path>.grid.txt" holds one whitespace-separated line of
node coordinates per direction. Reports are written as a CSV table and a
JSON mirror with identical content.
"""

import csv
import json
import math
import struct

import numpy as np

__all__ = ["write_snapshot", "read_snapshot", "write_report",
           "REPORT_COLUMNS"]

_MAGIC = b"CGLS"
_VERSION = 1

REPORT_COLUMNS = ("scheme", "steps", "tau", "seconds", "rel_err",
                  "observed_order", "status")


def write_snapshot(path, fields, time, grids):
    """Write component tensors plus the grid sidecar; bitwise reproducible."""
    fields = [np.asarray(u, dtype=complex) for u in fields]
    shape = fields[0].shape
    for u in fields:
        if u.shape != shape:
            raise ValueError("all components must share a shape")
    if len(grids) != len(shape):
        raise ValueError("one coordinate array per direction required")
    for g, n in zip(grids, shape):
        if len(g) != n:
            raise ValueError("coordinate array length must match extent")
    path = str(path)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, len(shape)))
        fh.write(struct.pack(f"<{len(shape)}Q", *shape))
        fh.write(struct.pack("<d", float(time)))
        fh.write(struct.pack("<I", len(fields)))
        for u in fields:
            flat = u.reshape(-1, order="F").astype("<c16")
            fh.write(flat.tobytes())
    with open(path + ".grid.txt", "w") as fh:
        for g in grids:
            fh.write(" ".join(repr(float(x)) for x in g) + "\n")


def read_snapshot(path):
    """Read a snapshot back; returns (fields, time).

    A file cut short at any byte raises ValueError("truncated snapshot ...").
    """
    with open(str(path), "rb") as fh:
        data = fh.read()
    if len(data) < len(_MAGIC) and _MAGIC.startswith(data):
        raise ValueError(f"truncated snapshot: {len(data)} bytes")
    if data[:4] != _MAGIC:
        raise ValueError("not a snapshot file (bad magic)")
    off = 4
    (version, order), off = _unpack("<II", data, off)
    if version != _VERSION:
        raise ValueError(f"unsupported snapshot version {version}")
    shape, off = _unpack(f"<{order}Q", data, off)
    (time,), off = _unpack("<d", data, off)
    (ncomp,), off = _unpack("<I", data, off)
    total = math.prod(shape)
    end = off + 16 * total * ncomp
    if len(data) < end:
        raise ValueError(f"truncated snapshot: {len(data)} of {end} bytes")
    if len(data) > end:
        raise ValueError("trailing bytes in snapshot file")
    fields = []
    for _ in range(ncomp):
        flat = np.frombuffer(data, dtype="<c16", count=total, offset=off)
        off += 16 * total
        fields.append(flat.astype(complex).reshape(shape, order="F"))
    return tuple(fields), time


def _unpack(fmt, data, off):
    """struct.unpack_from that reports a short header as truncation."""
    end = off + struct.calcsize(fmt)
    if len(data) < end:
        raise ValueError(f"truncated snapshot: {len(data)} bytes, header "
                         f"needs {end}")
    return struct.unpack_from(fmt, data, off), end


def _cell(value):
    if value is None:
        return ""
    return value


def write_report(base_path, rows):
    """Write rows to <base>.csv and the JSON mirror <base>.json."""
    base = str(base_path)
    for row in rows:
        extra = set(row) - set(REPORT_COLUMNS)
        if extra:
            raise ValueError(f"unknown report columns: {sorted(extra)}")
    with open(base + ".csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for row in rows:
            writer.writerow([_cell(row.get(c)) for c in REPORT_COLUMNS])
    with open(base + ".json", "w") as fh:
        json.dump([{c: row.get(c) for c in REPORT_COLUMNS} for row in rows],
                  fh, indent=2)
        fh.write("\n")
    return base + ".csv", base + ".json"
