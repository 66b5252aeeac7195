"""Regenerate references.json, the final-state norms each solve must match.

Usage (from the repository root)::

    python3 benchmark/record_references.py

Workloads whose initial state ignores the seed are recorded from one
solve, with a tolerance that admits floating-point reordering only. fd3d
starts from random data, so its reference is the median over several
seeds and its tolerance covers the spread between seeds.
"""

import json
import os
import statistics

from run import HERE, load_library, norms
from workloads import WORKLOADS, make_config

EXACT = {"max_modulus": 1e-6, "l2": 1e-6}
SEEDED = {"fd3d": (range(1, 9), {"max_modulus": 0.5, "l2": 0.03})}


def final_norms(lib, workload, seed):
    exp = lib.experiments
    config = make_config(exp, workload, seed)
    problem = exp.build_problem(config)
    state0 = problem.from_physical(exp.initial_state(config))
    result = lib.integrators.integrate(problem, config.scheme, state0,
                                       config.t_final, config.steps)
    if result.diverged:
        raise RuntimeError(f"{workload.name} diverged: {result.reason}")
    return norms(config, problem.to_physical(result.fields))


def main():
    lib = load_library()
    references = {}
    for name, workload in WORKLOADS.items():
        seeds, rtol = SEEDED.get(name, ((0,), EXACT))
        runs = [final_norms(lib, workload, seed) for seed in seeds]
        components = [{key: statistics.median(run[i][key] for run in runs)
                       for key in runs[0][i]} for i in range(len(runs[0]))]
        spread = {key: max(abs(run[i][key] / c[key] - 1.0) for run in runs
                           for i, c in enumerate(components))
                  for key in rtol}
        print(f"{name}: {components} seed spread {spread}")
        references[name] = {"rtol": rtol, "components": components}
    with open(os.path.join(HERE, "references.json"), "w") as fh:
        json.dump(references, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
