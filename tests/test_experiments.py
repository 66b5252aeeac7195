import math
from dataclasses import replace

import numpy as np
import pytest

from cglsolve import experiments
from cglsolve.experiments import (available_presets, build_problem,
                                  config_from_dict, config_to_dict,
                                  gaussian_profile, grid_axes, initial_state,
                                  least_squares_orders, make_preset,
                                  necklace_state, plane_wave_parameters,
                                  plane_wave_state, prepare_coupled_initial,
                                  relative_error, relative_modulus_drift,
                                  run_convergence_study, run_preset,
                                  smooth_modes_state, stability_sweep)
from cglsolve.integrators import integrate
from cglsolve.io import read_snapshot
from cglsolve.params import CglParameters


def test_preset_registry():
    names = available_presets()
    assert "cubic-2d-periodic" in names
    assert "coupled-2d-periodic" in names
    for name in names:
        cfg = make_preset(name)
        assert cfg.name == name
        big = make_preset(name, paper_scale=True)
        assert np.prod(big.extents) >= np.prod(cfg.extents)
    with pytest.raises(ValueError, match="unknown preset"):
        make_preset("nope")


def test_paper_scale_table_names_every_preset():
    assert set(experiments._PAPER_SCALE) == set(experiments.PRESETS)
    for name, config in experiments.PRESETS.items():
        assert config.name == name
        paper = experiments._PAPER_SCALE[name]
        assert make_preset(name, paper_scale=True) == replace(config, **paper)


def test_make_preset_overrides():
    cfg = make_preset("cubic-2d-periodic", steps=7, seed=99)
    assert cfg.steps == 7 and cfg.seed == 99


def test_config_dict_round_trip():
    for name in available_presets():
        cfg = make_preset(name)
        assert config_from_dict(config_to_dict(cfg)) == cfg


def test_config_from_dict_names_unknown_keys():
    data = config_to_dict(make_preset("plane-wave-1d"))
    with pytest.raises(ValueError, match="unknown config key.*stpes, zz"):
        config_from_dict({**data, "stpes": 3, "zz": 1})
    data["params"]["alpah3"] = 1.0
    with pytest.raises(ValueError, match="unknown params key.*alpah3"):
        config_from_dict(data)


# every key without a default, and alpha1 inside params
REQUIRED = ["name", "kind", "boundary", "params", "intervals", "extents",
            "t_final", "ic", "params.alpha1"]


@pytest.mark.parametrize("key", REQUIRED)
def test_config_from_dict_names_missing_keys(key):
    data = config_to_dict(make_preset("plane-wave-1d"))
    what, _, name = key.rpartition(".")
    del (data["params"] if what else data)[name]
    with pytest.raises(ValueError,
                       match=f"missing {what or 'config'} key.*{name}"):
        config_from_dict(data)


def test_config_from_dict_rejects_a_non_object():
    with pytest.raises(ValueError, match="must be an object"):
        config_from_dict([["name", "x"]])


@pytest.mark.parametrize("key,value", [
    ("extents", [64.9]), ("extents", [True]), ("extents", ["64"]),
    ("extents", 64), ("intervals", [[0.0, 50.0, 1.0]]), ("intervals", [5]),
    ("intervals", [[0.0, True]]), ("intervals", [[0.0, float("nan")]]),
    ("intervals", [["0", 50.0]]), ("params", [1.0])])
def test_config_from_dict_checks_tuple_fields(key, value):
    # a bad value is refused, not converted ([64.9] once became (64,))
    data = config_to_dict(make_preset("plane-wave-1d"))
    with pytest.raises(ValueError, match=f"config key {key!r}"):
        config_from_dict({**data, key: value})


@pytest.mark.parametrize("name", ["alpha1", "alpha3", "beta4", "alpha5"])
def test_config_from_dict_rejects_bool_parameters(name):
    data = config_to_dict(make_preset("plane-wave-1d"))
    data["params"][name] = True
    with pytest.raises(ValueError, match=f"parameter {name} "):
        config_from_dict(data)


def test_plane_wave_satisfies_dispersion_relation():
    cfg = make_preset("plane-wave-1d")
    p = cfg.params
    kappa, rho, omega = plane_wave_parameters(p, cfg.intervals[0],
                                              cfg.ic_mode)
    lam = ((p.alpha1 + 1j * p.beta1) * (-kappa ** 2) + p.alpha2
           + (p.alpha3 + 1j * p.beta3) * rho ** 2)
    assert abs(-1j * omega - lam) <= 1e-12
    assert rho > 0.0


def test_parameters_need_positive_alpha1():
    for alpha1 in (0.0, -1.0):
        with pytest.raises(ValueError, match="alpha1 must be positive"):
            CglParameters(alpha1=alpha1)


def test_plane_wave_needs_a_cubic_term():
    cfg = make_preset("plane-wave-1d")
    with pytest.raises(ValueError, match="cubic term"):
        plane_wave_parameters(replace(cfg.params, alpha3=0.0),
                              cfg.intervals[0], 1)


def test_coupled_kind_needs_periodic_boundaries():
    cfg = replace(make_preset("coupled-2d-periodic"), boundary="dirichlet")
    with pytest.raises(ValueError, match="periodic"):
        build_problem(cfg)


def test_plane_wave_state_is_exact_orbit():
    # one long step of a 4th-order scheme lands on the analytic state
    cfg = replace(make_preset("plane-wave-1d"), t_final=0.5)
    problem = build_problem(cfg)
    state0 = problem.from_physical((plane_wave_state(cfg, 0.0),))
    res = integrate(problem, "if4", state0, 0.5, 200)
    got = problem.to_physical(res.fields)[0]
    want = plane_wave_state(cfg, 0.5)
    assert np.max(np.abs(got - want)) <= 1e-9


def test_plane_wave_rejects_dead_modes():
    cfg = make_preset("plane-wave-1d")
    with pytest.raises(ValueError, match="amplitude"):
        plane_wave_parameters(cfg.params, cfg.intervals[0], 10)


def test_smooth_modes_deterministic_and_order_one():
    cfg = replace(make_preset("cubic-2d-periodic"), ic="smooth_modes")
    a = smooth_modes_state(cfg)
    b = smooth_modes_state(cfg)
    assert np.array_equal(a, b)
    assert a.shape == cfg.extents
    assert 0.1 < np.max(np.abs(a)) < 2.0


def test_necklace_matches_pointwise_formula():
    cfg = replace(make_preset("cubic-quintic-3d-periodic"),
                  extents=(12, 12, 8))
    u = necklace_state(cfg)
    axes = grid_axes(cfg)
    for (i, j, k) in [(0, 0, 0), (3, 7, 2), (11, 5, 6)]:
        x1, x2, x3 = axes[0][i], axes[1][j], axes[2][k]
        rho = math.hypot(x1, x2)
        theta = math.atan2(x2, x1)
        r = math.sqrt((rho - 6.0) ** 2 + x3 ** 2) / 2.5
        want = 1.2 / math.cosh(r) * math.cos(5 * theta) \
            * complex(math.cos(3 * theta), math.sin(3 * theta))
        assert abs(u[i, j, k] - want) <= 1e-14
    assert np.max(np.abs(u)) <= 1.2 + 1e-12


def test_necklace_needs_three_directions():
    cfg = make_preset("cubic-2d-periodic")
    with pytest.raises(ValueError, match="3D"):
        necklace_state(cfg)


def test_gaussian_profile_peak_on_grid_node():
    cfg = make_preset("coupled-2d-periodic")
    x = grid_axes(cfg)[0]
    w = gaussian_profile(x)
    # 17.5 is the 32nd node of the 128-point grid on (0, 70)
    assert x[32] == 17.5
    assert w[32] == 2.25
    assert np.all(np.abs(w) <= 2.25)


def test_random_small_state_seeded():
    cfg = make_preset("cubic-2d-dirichlet")
    (a,) = initial_state(cfg)
    (b,) = initial_state(cfg)
    (c,) = initial_state(replace(cfg, seed=cfg.seed + 1))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.max(np.abs(a)) < 2e-3
    assert a.shape == cfg.extents


def test_unknown_ic_rejected():
    cfg = replace(make_preset("cubic-2d-periodic"), ic="wat")
    with pytest.raises(ValueError, match="initial-condition"):
        initial_state(cfg)


def test_prepare_coupled_initial_reflection():
    cfg = replace(make_preset("coupled-2d-periodic"), prerun_steps=1500)
    u0, v0 = prepare_coupled_initial(cfg)
    n1, n2 = cfg.extents
    assert u0.shape == (n1, n2) and v0.shape == (n1, n2)
    # constant along the second direction
    assert np.array_equal(u0, np.repeat(u0[:, :1], n2, axis=1))
    # v is the x1-reflection of u, node for node
    idx = (-np.arange(n1)) % n1
    assert np.array_equal(v0, u0[idx, :])
    # saturated soliton amplitude on a front-resolving pre-run grid
    assert 2.0 < np.max(np.abs(u0)) < 2.4


def test_prepare_coupled_initial_needs_compatible_grids():
    cfg = replace(make_preset("coupled-2d-periodic"), prerun_extent=300)
    with pytest.raises(ValueError, match="multiple"):
        prepare_coupled_initial(cfg)


def test_relative_error_and_drift_helpers():
    a = np.array([1.0 + 0j, 2.0, -2.0])
    b = np.array([1.0 + 0j, 2.5, -2.0])
    assert relative_error((b,), (a,)) == pytest.approx(0.25)
    assert relative_modulus_drift(a, b) == pytest.approx(0.25)
    # drift sees modulus only: a global phase is invisible
    assert relative_modulus_drift(a, a * np.exp(0.3j)) <= 1e-15


def test_least_squares_orders_recovers_exact_slope():
    rows = []
    for m in (10, 20, 40, 80):
        tau = 1.0 / m
        rows.append({"scheme": "s", "steps": m, "tau": tau, "seconds": 0.0,
                     "rel_err": 3.0 * tau ** 2, "observed_order": None,
                     "status": "ok"})
        rows.append({"scheme": "x", "steps": m, "tau": tau, "seconds": 0.0,
                     "rel_err": None, "observed_order": None, "status": "x"})
    orders = least_squares_orders(rows)
    assert orders["s"] == pytest.approx(2.0, abs=1e-12)
    assert "x" not in orders


def test_convergence_study_against_exact_wave():
    cfg = make_preset("plane-wave-1d")
    rows, meta = run_convergence_study(cfg, ["strang"], [10, 20, 40])
    assert meta["reference"] == "exact plane wave"
    assert all(r["status"] == "ok" for r in rows)
    # consecutive observed orders approach 2 from the first refinement on
    assert rows[-1]["observed_order"] == pytest.approx(2.0, abs=0.1)
    assert meta["orders"]["strang"] == pytest.approx(2.0, abs=0.2)


def test_convergence_study_with_computed_reference():
    cfg = replace(make_preset("cubic-2d-periodic"), extents=(16, 16),
                  t_final=1.0, ic="smooth_modes")
    rows, meta = run_convergence_study(cfg, ["if4"], [8, 16])
    assert meta["reference"] == "if4 at 128 steps"
    assert meta["reference_agreement"] <= 1e-8
    errs = [r["rel_err"] for r in rows]
    assert errs[0] > errs[1] > 0.0
    assert meta["orders"]["if4"] == pytest.approx(4.0, abs=0.5)


def test_convergence_study_validates_input():
    cfg = make_preset("plane-wave-1d")
    with pytest.raises(ValueError, match="unknown scheme"):
        run_convergence_study(cfg, ["warp"], [10])
    with pytest.raises(ValueError, match="step count"):
        run_convergence_study(cfg, ["strang"], [])


def test_stability_sweep_shows_explicit_blowup():
    cfg = make_preset("cubic-2d-dirichlet")
    table = stability_sweep(cfg, ["rk4", "strang"], [10])
    assert table["rk4"][0]["diverged"]
    assert table["rk4"][0]["diverged_at"] >= 1
    assert not table["strang"][0]["diverged"]


def test_run_preset_writes_snapshots_and_summary(tmp_path):
    cfg = replace(make_preset("plane-wave-1d"), steps=10)
    summary, physical = run_preset(cfg, snapshot_steps=(5, 10),
                                   out_dir=str(tmp_path))
    assert summary["diverged"] is False
    assert summary["t_reached"] == pytest.approx(1.0)
    assert summary["extents"] == [64]
    names = {p.name for p in tmp_path.iterdir()}
    assert "plane-wave-1d-step000005.cgls" in names
    assert "plane-wave-1d-final.cgls" in names
    assert "plane-wave-1d-summary.json" in names
    fields, t = read_snapshot(tmp_path / "plane-wave-1d-final.cgls")
    assert t == pytest.approx(1.0)
    assert fields[0].tobytes() == physical[0].tobytes()


def test_run_preset_writes_the_last_finite_state_on_divergence(tmp_path):
    cfg = replace(make_preset("cubic-2d-dirichlet"), scheme="rk4", steps=10)
    summary, physical = run_preset(cfg, out_dir=str(tmp_path))
    k = summary["diverged_at"]
    assert summary["diverged"] and k >= 2
    assert summary["t_reached"] == pytest.approx((k - 1) * summary["tau"])
    fields, t = read_snapshot(str(tmp_path / "cubic-2d-dirichlet-final.cgls"))
    assert t == summary["t_reached"]
    assert all(np.all(np.isfinite(u)) for u in fields)
    assert all(np.array_equal(a, b) for a, b in zip(fields, physical))


def test_run_preset_frozen_probe_on_steady_orbit():
    # a plane wave has constant modulus, so the drift probe reads only
    # the scheme's own error over a few steps
    cfg = replace(make_preset("plane-wave-1d"), steps=20)
    summary, _ = run_preset(cfg, frozen_probe_steps=5)
    assert summary["frozen_modulus_drift"] <= 1e-6


@pytest.mark.parametrize("probe", [-3, 2.5, True, "2"])
def test_run_preset_rejects_bad_frozen_probe_before_any_work(probe,
                                                             monkeypatch):
    def no_build(config):
        raise AssertionError("the run started")

    monkeypatch.setattr(experiments, "build_problem", no_build)
    with pytest.raises(ValueError, match="frozen_probe_steps"):
        run_preset(make_preset("plane-wave-1d"), frozen_probe_steps=probe)


@pytest.mark.parametrize("snapshots,out", [
    ((0,), True), ((11,), True), ((2.5,), True), ((True,), True),
    (("3",), True), ((1, 2), False)])
def test_run_preset_rejects_bad_snapshot_steps_before_any_work(
        snapshots, out, tmp_path, monkeypatch):
    def no_build(config):
        raise AssertionError("the run started")

    monkeypatch.setattr(experiments, "build_problem", no_build)
    cfg = replace(make_preset("plane-wave-1d"), steps=10)
    with pytest.raises(ValueError, match="snapshot"):
        run_preset(cfg, snapshot_steps=snapshots,
                   out_dir=str(tmp_path) if out else None)
    assert not any(tmp_path.iterdir())
