"""What the benchmark (``benchmark/``) needs of the library.

``benchmark/tracing.py`` rebinds library names by attribute on their
owners, and ``benchmark/workloads.py`` states the per-step layer calls of
each workload (``loop_calls``), which its traced runs check. Both files
are executed here from their source, so nothing is written under
``benchmark/``; a break shows here instead of only in a traced run.
"""

import types
from pathlib import Path

import pytest

import cglsolve
from cglsolve import experiments, integrators

from test_integrators import STEP_CALLS, counting_problem

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


def load(name):
    """benchmark/<name>.py as a module, without a bytecode file."""
    path = BENCHMARK / f"{name}.py"
    module = types.ModuleType(name)
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_every_traced_name_is_in_its_owners_dict():
    # installed() reads owner.__dict__[attr], so an inherited or renamed
    # attribute breaks the traced runs
    sites = [(owner, attr) for owner, attr, _ in load("tracing")._sites(
        cglsolve)]
    sites += [(experiments, "integrate"), (integrators, "integrate")]
    missing = [f"{owner.__name__}.{attr}" for owner, attr in sites
               if not callable(vars(owner).get(attr))]
    assert not missing


WORKLOADS = load("workloads").WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_loop_calls_are_the_schemes_step_calls(name):
    workload = WORKLOADS[name]
    config = experiments.make_preset(workload.preset, paper_scale=True,
                                     **workload.overrides)
    kind = ("fd" if config.boundary != "periodic" else
            "coupled" if config.kind.startswith("coupled") else "fourier")
    assert counting_problem(kind).nonlinear.kind == config.kind
    want = {layer.rpartition(".")[2]: n
            for layer, n in workload.loop_calls.items()}
    assert STEP_CALLS[kind, config.scheme] == want
