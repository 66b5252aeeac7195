"""The benchmark's workloads: paper-scale presets with truncated step counts.

Each workload is one preset at the paper's resolution. A solve runs
``steps`` steps of the preset's own ``tau`` (so ``t_final = steps * tau``)
and writes the final state; ``preset_steps`` is the full preset's step
count, used to extrapolate its time to solution.

``loop_calls`` are the per-step call counts each scheme implies for the
layers in ``LOOP_LAYERS`` (absent means 0); ``prerun_calls`` are the calls
made by the 1D pre-run that builds the coupled initial state. The traced
run fails when a counted call is missing or extra.
"""

from dataclasses import dataclass, field

LOOP_LAYERS = (
    "tensors.tucker_apply", "flows.cubic_flow", "flows.quintic_flow",
    "flows.eval_g", "spectral.dft_forward", "spectral.dft_inverse",
    "spectral.pointwise_apply",
)


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    steps: int
    preset_steps: int
    why: str
    overrides: dict = field(default_factory=dict)
    loop_calls: dict = field(default_factory=dict)
    prerun_calls: dict = field(default_factory=dict)


WORKLOADS = {w.name: w for w in (
    Workload(
        "fd3d", "cubic-3d-dirichlet-neumann", steps=10, preset_steps=200,
        why="128^3 finite differences, split4: Tucker mu-mode products and"
            " exact cubic flows, no FFT",
        loop_calls={"tensors.tucker_apply": 3, "flows.cubic_flow": 5}),
    Workload(
        "fourier3d", "cubic-quintic-3d-periodic", steps=10,
        preset_steps=200,
        why="128^3 Fourier, if4: FFT pairs, eval_g and pointwise symbol"
            " products; no Tucker products or exact flows",
        loop_calls={"spectral.dft_forward": 4, "spectral.dft_inverse": 4,
                    "flows.eval_g": 4, "spectral.pointwise_apply": 6}),
    Workload(
        "coupled2d", "coupled-2d-periodic", steps=30, preset_steps=300,
        why="700x350 mixed-radix two-component if4; set-up is a"
            " 10,000-step 1D pre-run that measures per-call overhead",
        loop_calls={"spectral.dft_forward": 8, "spectral.dft_inverse": 8,
                    "flows.eval_g": 4, "spectral.pointwise_apply": 12},
        prerun_calls={"flows.eval_g": 40000}),
    Workload(
        "fourier3d-3t", "cubic-quintic-3d-periodic", steps=20,
        preset_steps=200,
        overrides={"extents": (64, 64, 64), "scheme": "split4_3t"},
        why="64^3 (cache-resident) split4_3t: the only quintic flow and an"
            " FFT pair around every exact flow",
        loop_calls={"spectral.dft_forward": 12, "spectral.dft_inverse": 12,
                    "flows.cubic_flow": 6, "flows.quintic_flow": 6,
                    "spectral.pointwise_apply": 3}),
)}


def make_config(experiments, workload, seed):
    """The paper-scale preset truncated to the workload's step count."""
    full = experiments.make_preset(workload.preset, paper_scale=True,
                                   **workload.overrides)
    tau = full.t_final / full.steps
    return experiments.make_preset(
        workload.preset, paper_scale=True, steps=workload.steps,
        t_final=workload.steps * tau, seed=seed, **workload.overrides)
