"""Print the desk digests: one sha256 per preset and scheme, then their hash.

Each of the six presets, sorted, runs at desk scale under if4, if2, rk4,
rk2, split4 and strang. A run's digest is the sha256 of its final
physical components' C-order bytes, concatenated; the list hash is the
sha256 of the newline-joined hex digests. Two trees that print the same
list hash step every desk run to the same bits. FD bits depend on the
BLAS build, so compare trees on one machine.

Run from the repository root: ``python3 tools/desk_digests.py``.
"""

import hashlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

import numpy as np  # noqa: E402

from cglsolve.experiments import (available_presets, make_preset,  # noqa: E402
                                  run_preset)

SCHEMES = ("if4", "if2", "rk4", "rk2", "split4", "strang")


def main():
    digests = []
    for name in available_presets():
        for scheme in SCHEMES:
            _, fields = run_preset(make_preset(name, scheme=scheme))
            h = hashlib.sha256()
            for u in fields:
                h.update(np.ascontiguousarray(u).tobytes())
            digests.append(h.hexdigest())
            print(f"{name:28s} {scheme:7s} {digests[-1]}")
    joined = "\n".join(digests).encode()
    print("list hash", hashlib.sha256(joined).hexdigest())


if __name__ == "__main__":
    main()
