"""Print the desk digests: one sha256 per preset and scheme, then their hash.

Each of the six presets, sorted, runs at desk scale under if4, if2, rk4,
rk2, split4 and strang. A run's digest is the sha256 of its final
physical components' C-order bytes, concatenated; the list hash is the
sha256 of the newline-joined hex digests. Two trees that print the same
list hash step every desk run to the same bits. FD bits depend on the
BLAS build, so compare trees on one machine.

Run from the repository root: ``python3 tools/desk_digests.py``. With
``--against FILE``, a listing this tool printed before, it also names on
stderr each preset and scheme whose digest moved (or that either listing
lacks) and then exits 1; it exits 0 if none did.
"""

import argparse
import hashlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

import numpy as np  # noqa: E402

from cglsolve.experiments import (available_presets, make_preset,  # noqa: E402
                                  run_preset)

SCHEMES = ("if4", "if2", "rk4", "rk2", "split4", "strang")


def read_listing(path):
    """{(preset, scheme): digest} from a saved listing; other lines, such
    as the list hash, are skipped."""
    with open(path) as fh:
        rows = [line.split() for line in fh]
    return {(row[0], row[1]): row[2] for row in rows
            if len(row) == 3 and row[0] != "list"}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="FILE",
                        help="a saved listing to compare this run with")
    args = parser.parse_args(argv)
    before = None if args.against is None else read_listing(args.against)
    found = {}
    for name in available_presets():
        for scheme in SCHEMES:
            _, fields = run_preset(make_preset(name, scheme=scheme))
            h = hashlib.sha256()
            for u in fields:
                h.update(np.ascontiguousarray(u).tobytes())
            found[name, scheme] = h.hexdigest()
            print(f"{name:28s} {scheme:7s} {found[name, scheme]}")
    joined = "\n".join(found.values()).encode()
    print("list hash", hashlib.sha256(joined).hexdigest())
    if before is None:
        return 0
    moved = [key for key in {**found, **before}
             if found.get(key) != before.get(key)]
    for name, scheme in moved:
        print(f"moved: {name} {scheme}", file=sys.stderr)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
