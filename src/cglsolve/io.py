"""Snapshots and sweep reports, each file written atomically.

Snapshot layout (all little-endian), with a text sidecar
"<path>.grid.txt" of one line of node coordinates per direction:

    magic    4 bytes  b"CGLS"
    version  u32      currently 1
    order    u32      number of directions d
    extents  d * u64
    time     f64      simulation time of the state
    ncomp    u32      number of solution components
    payload  per component, extents-shaped complex values written
             first-index-fastest as (f64 re, f64 im) pairs

A failed write leaves the earlier files at its paths and no temporary.
"""

import csv
import json
import math
import os
import struct
from contextlib import contextmanager
from io import StringIO

import numpy as np

__all__ = ["write_snapshot", "read_snapshot", "write_csv", "write_report",
           "REPORT_COLUMNS"]

_MAGIC = b"CGLS"
_VERSION = 1

REPORT_COLUMNS = ("scheme", "steps", "tau", "seconds", "rel_err",
                  "observed_order", "status", "diverged_at")


def write_snapshot(path, fields, time, grids):
    """Write component tensors plus the grid sidecar; bitwise reproducible.
    ValueError, before any file is made, for no components or a time that
    is not finite."""
    fields = [np.asarray(u, dtype="<c16") for u in fields]
    if not fields:
        raise ValueError("need at least one component")
    time = float(time)
    if not math.isfinite(time):
        raise ValueError(f"snapshot time must be finite, got {time}")
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
    with _staged(path, "xb") as fh, _staged(path + ".grid.txt", "x") as side:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, len(shape)))
        fh.write(struct.pack(f"<{len(shape)}Q", *shape))
        fh.write(struct.pack("<d", time))
        fh.write(struct.pack("<I", len(fields)))
        for u in fields:
            fh.write(np.ravel(u, order="F"))
        for g in grids:
            side.write(" ".join(repr(float(x)) for x in g) + "\n")


@contextmanager
def _staged(path, mode):
    """A file created (``mode`` "x" or "xb") under a temporary name in
    path's directory and moved onto path by ``os.replace`` when the block
    ends; removed instead if the block raises."""
    head, name = os.path.split(path)
    temp = os.path.join(head, f".{name}.{os.urandom(6).hex()}.tmp")
    fh = open(temp, mode)
    try:
        with fh:
            yield fh
        os.replace(temp, path)
    except BaseException:
        os.remove(temp)
        raise


def read_snapshot(path):
    """(fields, time) of a snapshot, each field a new F-ordered array.
    ValueError for a file cut short at any byte ("truncated snapshot
    ...") and, before any field is made, for no components or a time
    that is not finite, which ``write_snapshot`` refuses too."""
    with open(str(path), "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(len(_MAGIC))
        if len(magic) < len(_MAGIC) and _MAGIC.startswith(magic):
            raise ValueError(f"truncated snapshot: {size} bytes")
        if magic != _MAGIC:
            raise ValueError("not a snapshot file (bad magic)")
        version, order = _unpack(fh, "<II", size)
        if version != _VERSION:
            raise ValueError(f"unsupported snapshot version {version}")
        shape = _unpack(fh, f"<{order}Q", size)
        (time,) = _unpack(fh, "<d", size)
        (ncomp,) = _unpack(fh, "<I", size)
        if not ncomp or not math.isfinite(time):
            raise ValueError(f"a snapshot needs a component and a finite "
                             f"time, got {ncomp} at {time}")
        end = fh.tell() + 16 * math.prod(shape) * ncomp
        if size < end:
            raise ValueError(f"truncated snapshot: {size} of {end} bytes")
        if size > end:
            raise ValueError("trailing bytes in snapshot file")
        fields = tuple(np.empty(shape, "<c16", order="F")
                       for _ in range(ncomp))
        for u in fields:
            if fh.readinto(np.ravel(u, order="F")) < u.nbytes:
                raise ValueError("truncated snapshot: shrank while read")
    return tuple(u.astype(complex, copy=False) for u in fields), time


def _unpack(fh, fmt, size):
    """The next header field; a short one is reported as truncation (and
    not read, so a corrupt count allocates nothing)."""
    n = struct.calcsize(fmt)
    end = fh.tell() + n
    data = fh.read(n) if end <= size else b""
    if len(data) < n:
        raise ValueError(f"truncated snapshot: {size} bytes, header needs "
                         f"{end}")
    return struct.unpack(fmt, data)


def _cell(value):
    if value is None:
        return ""
    return value


def write_csv(stream, rows):
    """Rows as CSV under a REPORT_COLUMNS header; None is an empty cell."""
    writer = csv.writer(stream)
    writer.writerow(REPORT_COLUMNS)
    for row in rows:
        writer.writerow([_cell(row.get(c)) for c in REPORT_COLUMNS])


def write_report(base_path, rows):
    """Write rows to <base>.csv and the JSON mirror <base>.json, making
    base's directory if it is missing; ValueError for an unknown column."""
    base = str(base_path)
    for row in rows:
        extra = set(row) - set(REPORT_COLUMNS)
        if extra:
            raise ValueError(f"unknown report columns: {sorted(extra)}")
    table = StringIO()
    write_csv(table, rows)
    os.makedirs(os.path.dirname(base) or ".", exist_ok=True)
    with _staged(base + ".csv", "xb") as fh, \
            _staged(base + ".json", "x") as mirror:
        fh.write(table.getvalue().encode())
        json.dump([{c: row.get(c) for c in REPORT_COLUMNS} for row in rows],
                  mirror, indent=2)
        mirror.write("\n")
    return base + ".csv", base + ".json"
