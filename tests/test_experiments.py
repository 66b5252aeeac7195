import json
import math
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from cglsolve import experiments
from cglsolve.experiments import (ReferenceMismatch, available_presets,
                                  build_problem, config_from_dict,
                                  config_to_dict,
                                  gaussian_profile, grid_axes, initial_state,
                                  least_squares_orders, make_preset,
                                  necklace_state, plane_wave_parameters,
                                  plane_wave_state, prepare_coupled_initial,
                                  relative_error, run_convergence_study,
                                  run_preset,
                                  smooth_modes_state)
from cglsolve.integrators import IntegrationResult, integrate
from cglsolve.io import read_snapshot
from cglsolve.operators import FourierOperator
from cglsolve.params import CglParameters
from cglsolve.spectral import dft_inverse

from oracles import dense_symbol, necklace_dense


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


@pytest.mark.parametrize("override,match", [
    ({"extents": (64.5,)}, "'extents' entry must be an integer"),
    ({"foo": 1}, "unknown config key.*foo"),
    ({"steps": "ten"}, "'steps' must be an integer"),
], ids=["fractional-extent", "unknown-key", "steps-not-int"])
def test_make_preset_checks_its_overrides(override, match):
    # the overrides pass config_from_dict's checks: a fractional extent
    # is not cut to a shorter grid, and an unknown key is no TypeError
    with pytest.raises(ValueError, match=match):
        make_preset("plane-wave-1d", **override)


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
    ("intervals", [["0", 50.0]]), ("params", [1.0]),
    # a JSON integer beyond the float range was an OverflowError
    ("intervals", [[0, 10 ** 400]])])
def test_config_from_dict_checks_tuple_fields(key, value):
    # a bad value is refused, not converted ([64.9] once became (64,))
    data = config_to_dict(make_preset("plane-wave-1d"))
    with pytest.raises(ValueError, match=f"config key {key!r}"):
        config_from_dict({**data, key: value})


@pytest.mark.parametrize("name", ["a/b", "/abs", "a\0b"])
def test_config_from_dict_rejects_a_name_with_a_separator_or_nul(name):
    # the name heads the output files: "a/b" once failed only after the
    # solve, at the first write under out/a/, and a replaced name once
    # reached run_preset unchecked
    cfg = make_preset("plane-wave-1d")
    with pytest.raises(ValueError, match="config key 'name'"):
        config_from_dict({**config_to_dict(cfg), "name": name})
    with pytest.raises(ValueError, match="config key 'name'"):
        replace(cfg, name=name)


@pytest.mark.parametrize("name", ["alpha1", "alpha3", "beta4", "alpha5"])
def test_config_from_dict_rejects_bool_parameters(name):
    data = config_to_dict(make_preset("plane-wave-1d"))
    data["params"][name] = True
    with pytest.raises(ValueError, match=f"parameter {name} "):
        config_from_dict(data)


@pytest.mark.parametrize("override,match", [
    ({"kind": "quartic"}, "kind must be one of"),
    ({"params": {"alpha1": 1.0}}, "config key 'params' must be an object"),
    ({"extents": [128.0, 64]}, "config key 'extents' entry"),
    ({"seed": "7"}, "config key 'seed' must be an integer")],
    ids=["kind", "params", "extents", "seed"])
def test_a_replaced_config_is_checked_as_one_from_a_dict(override, match):
    cfg = make_preset("coupled-2d-periodic")
    with pytest.raises(ValueError, match=match):
        replace(cfg, **override)


def test_a_config_stores_its_extents_and_intervals_as_tuples():
    cfg = replace(make_preset("plane-wave-1d"), extents=[np.int64(32)],
                  intervals=[[0, np.float32(25.0)]])
    assert cfg.extents == (32,) and type(cfg.extents[0]) is int
    assert cfg.intervals == ((0.0, 25.0),)
    assert all(type(end) is float for end in cfg.intervals[0])
    hash(cfg)  # lists would make the frozen config unhashable


def test_a_config_without_directions_is_refused_before_any_run(
        tmp_path, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(experiments, "integrate", no_run)
    for preset in ("plane-wave-1d", "cubic-2d-dirichlet"):
        cfg = make_preset(preset, extents=[], intervals=[])
        with pytest.raises(ValueError, match="need at least one direction"):
            run_preset(cfg, out_dir=str(tmp_path))
        with pytest.raises(ValueError, match="need at least one direction"):
            run_convergence_study(cfg, ["if4"], [4], out_dir=str(tmp_path))
    assert not any(tmp_path.iterdir())


def test_plane_wave_satisfies_dispersion_relation():
    cfg = make_preset("plane-wave-1d")
    p = cfg.params
    kappa, rho, omega = plane_wave_parameters(p, cfg.intervals[0], 1)
    lam = ((p.alpha1 + 1j * p.beta1) * (-kappa ** 2) + p.alpha2
           + (p.alpha3 + 1j * p.beta3) * rho ** 2)
    assert abs(-1j * omega - lam) <= 1e-12
    assert rho > 0.0


def test_parameters_need_positive_alpha1():
    for alpha1 in (0.0, -1.0):
        with pytest.raises(ValueError, match="alpha1 must be positive"):
            CglParameters(alpha1=alpha1)


@pytest.mark.parametrize("value", [np.float32(1.5), np.int64(2),
                                   np.float64(0.25), 3, Fraction(1, 4)])
def test_parameters_take_any_finite_real_as_a_float(value):
    p = CglParameters(alpha1=value, beta3=value)
    for got in (p.alpha1, p.beta3, p.alpha2):
        assert type(got) is float
    assert p.alpha1 == p.beta3 == float(value)


@pytest.mark.parametrize("value", [True, np.float32(np.inf), np.nan,
                                   10 ** 400, 1j, "1", None],
                         ids=["bool", "float32-inf", "nan", "huge-int",
                              "complex", "str", "none"])
def test_parameters_refuse_what_is_not_a_finite_real(value):
    with pytest.raises(ValueError, match="parameter beta1 must be a finite "
                                         "real, got "):
        CglParameters(alpha1=1.0, beta1=value)


def test_plane_wave_needs_a_cubic_term():
    cfg = make_preset("plane-wave-1d")
    with pytest.raises(ValueError, match="cubic term"):
        plane_wave_parameters(replace(cfg.params, alpha3=0.0),
                              cfg.intervals[0], 1)


def test_coupled_kind_needs_periodic_boundaries():
    # the config refuses itself, by replace or from a dict
    cfg = make_preset("coupled-2d-periodic")
    for boundary in ("dirichlet", "dirichlet_neumann"):
        with pytest.raises(ValueError, match="require periodic boundaries"):
            replace(cfg, boundary=boundary)
        with pytest.raises(ValueError, match="require periodic boundaries"):
            config_from_dict({**config_to_dict(cfg), "boundary": boundary})


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


# small grids are filled serially, the desk 32^3 and larger on the slab
# pool, a slab of x1 planes per thread
@pytest.mark.parametrize("extents,intervals", [
    ((12, 12, 8), ((-12.0, 12.0),) * 3),
    ((20, 14, 9), ((-12.0, 12.0), (-9.0, 10.0), (-5.0, 5.0))),
    ((32, 32, 32), ((-12.0, 12.0),) * 3),
    ((64, 64, 64), ((-12.0, 12.0),) * 3),
    ((37, 40, 30), ((-12.0, 12.0), (-9.0, 10.0), (-5.0, 5.0)))])
def test_necklace_equals_the_dense_mesh_formula(extents, intervals):
    cfg = replace(make_preset("cubic-quintic-3d-periodic"), extents=extents,
                  intervals=intervals)
    u = necklace_state(cfg)
    assert u.flags.c_contiguous
    assert np.array_equal(u, necklace_dense(grid_axes(cfg)))


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


def test_prepare_coupled_initial_reflection(monkeypatch):
    monkeypatch.setattr(experiments, "_PRERUN_STEPS", 1500)
    cfg = make_preset("coupled-2d-periodic")
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


# configs the soliton pair cannot be built for: 1D and 3D coupled grids,
# and a 2D grid of a scalar kind
NOT_A_SOLITON_PAIR = {
    "coupled-1d": ("coupled-2d-periodic",
                   {"intervals": [[0.0, 70.0]], "extents": [64]}),
    "coupled-3d": ("coupled-2d-periodic",
                   {"intervals": [[0.0, 70.0]] * 3, "extents": [16, 8, 8]}),
    "scalar-2d": ("cubic-2d-periodic", {"ic": "soliton_pair"}),
}


@pytest.mark.parametrize("preset,overrides", NOT_A_SOLITON_PAIR.values(),
                         ids=NOT_A_SOLITON_PAIR)
def test_the_soliton_pair_needs_a_2d_coupled_config(preset, overrides,
                                                    monkeypatch):
    def no_prerun(*args):
        raise AssertionError("the pre-run was started")

    monkeypatch.setattr(experiments, "integrate", no_prerun)
    cfg = make_preset(preset, **overrides)
    with pytest.raises(ValueError, match="soliton_pair"):
        prepare_coupled_initial(cfg)


@pytest.mark.parametrize("extents,fine", [((128, 64), 512),
                                          ((700, 350), 700), ((100, 50), 600)],
                         ids=["desk", "paper", "extent-100"])
def test_the_coupled_pre_run_grid_is_derived(extents, fine, monkeypatch):
    # the least multiple of extents[0] with 512 nodes or more, sampled at
    # every (fine / extents[0])-th node; the pre-run is stubbed, so its
    # initial line stands in for its result
    runs = []

    def recorded(problem, scheme, fields, t_final, steps):
        runs.append((problem.shape, fields[0]))
        return IntegrationResult(fields, steps, t_final / steps, 0.0)

    monkeypatch.setattr(experiments, "integrate", recorded)
    u0, v0 = prepare_coupled_initial(make_preset("coupled-2d-periodic",
                                                 extents=extents))
    [(shape, w)] = runs
    assert shape == (fine,)
    assert u0.shape == v0.shape == extents
    assert np.array_equal(u0[:, 0], dft_inverse(w)[::fine // extents[0]])


@pytest.mark.parametrize("interval,length", [((100.0, 0.0), -100.0),
                                             ((5.0, 5.0), 0.0)],
                         ids=["reversed", "empty"])
def test_fd_configs_reject_an_empty_or_reversed_interval(interval, length):
    # before any matrix or warning: the length is named in the error
    cfg = make_preset("cubic-2d-dirichlet", steps=5,
                      intervals=(interval, (0.0, 100.0)))
    message = f"interval length must be positive and finite, got {length}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (run_preset, build_problem, grid_axes):
            with pytest.raises(ValueError, match=message):
                call(cfg)


def test_paper_scale_coupled_initial_state_keeps_its_bits(monkeypatch):
    # the 1D pre-run's symbol is its own Kronecker sum, so its
    # exponentials, and the state they make, are those of the full
    # symbol summed on the whole grid
    cfg = make_preset("coupled-2d-periodic", paper_scale=True)
    u0, v0 = prepare_coupled_initial(cfg)

    def dense_operator(grid, params, advection_sign=0):
        return FourierOperator(grid, [dense_symbol(
            [grid.wavenumbers(0)], params.diffusion, params.alpha2,
            advection_sign * params.alpha0)])

    monkeypatch.setattr(experiments, "build_periodic_operator",
                        dense_operator)
    u1, v1 = prepare_coupled_initial(cfg)
    assert np.array_equal(u0, u1) and np.array_equal(v0, v1)


def test_relative_error_and_drift_helpers():
    a = np.array([1.0 + 0j, 2.0, -2.0])
    b = np.array([1.0 + 0j, 2.5, -2.0])
    assert relative_error((b,), (a,)) == pytest.approx(0.25)


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


def _with_split4(monkeypatch, change):
    """Make run_convergence_study's split4 runs return change(result)."""
    real = experiments.integrate

    def integrate_then_change(problem, scheme, *args, **kwargs):
        result = real(problem, scheme, *args, **kwargs)
        return change(result) if scheme == "split4" else result

    monkeypatch.setattr(experiments, "integrate", integrate_then_change)


def test_a_diverged_reference_names_its_scheme_steps_and_failure(
        monkeypatch):
    # one step of the necklace is coarse enough that if4 blows up at 8,
    # and then split4 does not run
    split4_runs = []
    _with_split4(monkeypatch, lambda r: split4_runs.append(r) or r)
    with pytest.raises(ReferenceMismatch, match=(
            r"^reference run if4 at 8 steps diverged at step [1-8]: "
            r"non-finite state$")):
        run_convergence_study(make_preset("cubic-quintic-3d-periodic"),
                              ["if4"], [1])
    assert split4_runs == []
    _with_split4(monkeypatch, lambda r: replace(
        r, diverged=True, diverged_at=3, reason="a made-up blow-up"))
    cfg = replace(make_preset("cubic-2d-periodic"), extents=(16, 16),
                  t_final=1.0, ic="smooth_modes")
    with pytest.raises(ReferenceMismatch, match=(
            r"^reference run split4 at 16 steps diverged at step 3: "
            r"a made-up blow-up$")):
        run_convergence_study(cfg, ["if4"], [2])


def test_reference_runs_that_disagree_are_a_mismatch(monkeypatch):
    # a split4 reference off by 1e-3, far above if4's error at 16 steps
    _with_split4(monkeypatch, lambda r: replace(
        r, fields=tuple(1.001 * u for u in r.fields)))
    cfg = replace(make_preset("cubic-2d-periodic"), extents=(16, 16),
                  t_final=1.0, ic="smooth_modes")
    with pytest.raises(ReferenceMismatch, match=(
            r"^reference runs if4 and split4 at 128 steps differ by "
            r"1\.000e-03, more than 10x the smallest measured error "
            r"\d\.\d{3}e-\d\d$")):
        run_convergence_study(cfg, ["if4"], [8, 16])


def test_convergence_study_validates_input():
    cfg = make_preset("plane-wave-1d")
    with pytest.raises(ValueError, match="unknown scheme"):
        run_convergence_study(cfg, ["warp"], [10])
    with pytest.raises(ValueError, match="step count"):
        run_convergence_study(cfg, ["strang"], [])
    with pytest.raises(ValueError, match="at least one scheme"):
        run_convergence_study(cfg, [], [10])


def test_convergence_study_runs_a_repeated_scheme_once():
    # like the step ladder, the schemes are de-duplicated, in the order
    # they first appear
    rows, meta = run_convergence_study(make_preset("plane-wave-1d"),
                                       ["if4", "strang", "if4"], [4, 8, 8])
    assert [(r["scheme"], r["steps"]) for r in rows] == [
        ("if4", 4), ("if4", 8), ("strang", 4), ("strang", 8)]
    assert sorted(meta["orders"]) == ["if4", "strang"]


@pytest.mark.parametrize("steps", [0, -4, 10.7, True, "12"])
def test_convergence_study_rejects_bad_step_counts_before_any_run(
        steps, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(experiments, "integrate", no_run)
    cfg = make_preset("cubic-2d-dirichlet")
    with pytest.raises(ValueError, match="step count"):
        run_convergence_study(cfg, ["if4"], [steps, 20])


@pytest.mark.parametrize("override", [
    {"steps": 0}, {"steps": 2.5}, {"steps": True}, {"t_final": -1.0},
    {"t_final": 0.0}, {"t_final": math.inf}, {"t_final": math.nan},
    {"t_final": "1"}, {"t_final": None},
    {"scheme": "bogus"}, {"scheme": "strang_3t"}, {"scheme": "split4_3t"}],
    ids=lambda o: "-".join(map(str, *o.items())))
def test_a_bad_run_is_rejected_before_any_work(override, monkeypatch):
    # coupled-2d-periodic builds its initial state by a 10,000-step pre-run;
    # the config refuses a bad run when it is made, so none can start
    def no_state(config):
        raise AssertionError("the initial state was built")

    monkeypatch.setattr(experiments, "initial_state", no_state)
    cfg = make_preset("coupled-2d-periodic")
    with pytest.raises(ValueError):
        replace(cfg, **override)
    with pytest.raises(ValueError):
        make_preset("coupled-2d-periodic", **override)
    # a sweep checks its own schemes and step ladder the same way
    if "t_final" not in override:
        with pytest.raises(ValueError):
            run_convergence_study(cfg, [override.get("scheme", cfg.scheme)],
                                  [override.get("steps", cfg.steps), 400])


def test_convergence_study_writes_its_report(tmp_path):
    cfg = make_preset("plane-wave-1d")
    out = tmp_path / "missing" / "sub"
    rows, meta = run_convergence_study(cfg, ["strang"], [10, 20],
                                       out_dir=str(out))
    base = str(out / "plane-wave-1d-sweep")
    assert meta["report"] == (base + ".csv", base + ".json")
    with open(base + ".json") as fh:
        written = json.load(fh)
    assert [r["steps"] for r in written] == [10, 20]
    assert [r["rel_err"] for r in written] == [r["rel_err"] for r in rows]


def _a_file(tmp_path, under):
    """A regular file, and an out_dir that is it or a directory under it."""
    afile = tmp_path / "afile"
    afile.write_text("keep\n")
    return afile, str(afile / "sub" if under else afile)


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize("errors", [True, False], ids=["errors", "stability"])
def test_convergence_study_rejects_a_non_directory_out_dir_before_any_run(
        errors, under, tmp_path, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(experiments, "integrate", no_run)
    afile, out_dir = _a_file(tmp_path, under)
    with pytest.raises(ValueError, match="exists and is not a directory"):
        run_convergence_study(make_preset("plane-wave-1d"), ["strang"], [10],
                              errors=errors, out_dir=out_dir)
    assert afile.read_text() == "keep\n"


def test_stability_sweep_shows_explicit_blowup():
    cfg = make_preset("cubic-2d-dirichlet")
    rows, meta = run_convergence_study(cfg, ["rk4", "strang"], [10],
                                       errors=False)
    rk4, strang = rows
    assert rk4["scheme"] == "rk4" and rk4["status"] == "x"
    assert rk4["diverged_at"] >= 1
    assert strang["status"] == "ok" and strang["diverged_at"] == 0
    assert strang["rel_err"] is None and strang["observed_order"] is None
    assert meta == {}


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


def test_run_preset_makes_a_missing_out_dir(tmp_path):
    cfg = replace(make_preset("plane-wave-1d"), steps=4)
    out = tmp_path / "missing" / "sub"
    summary, _ = run_preset(cfg, snapshot_steps=(2,), out_dir=str(out))
    assert {p.name for p in out.iterdir()} == {
        f"plane-wave-1d-{name}" for name in (
            "step000002.cgls", "step000002.cgls.grid.txt", "final.cgls",
            "final.cgls.grid.txt", "summary.json")}
    assert summary["snapshots"] == [str(out / "plane-wave-1d-step000002.cgls"),
                                    str(out / "plane-wave-1d-final.cgls")]


def test_failed_summary_write_keeps_the_earlier_summary(tmp_path,
                                                       monkeypatch):
    cfg = replace(make_preset("plane-wave-1d"), steps=4)
    run_preset(cfg, out_dir=str(tmp_path))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def half_dump(obj, fh, **kwargs):
        fh.write("{\n")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(experiments.json, "dump", half_dump)
    with pytest.raises(OSError, match="No space"):
        run_preset(cfg, out_dir=str(tmp_path))
    monkeypatch.undo()
    # the final snapshot is rewritten with the same bytes; no temporary stays
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


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
    assert summary["max_modulus"] == max(float(np.max(np.abs(u)))
                                         for u in fields)


@pytest.mark.parametrize("snapshots,out", [
    ((0,), True), ((11,), True), ((2.5,), True), ((True,), True),
    (("3",), True), ((1, 2), False), (3, True)])
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


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_run_preset_rejects_a_non_directory_out_dir_before_any_work(
        under, tmp_path, monkeypatch):
    def no_build(config):
        raise AssertionError("the run started")

    monkeypatch.setattr(experiments, "build_problem", no_build)
    afile, out_dir = _a_file(tmp_path, under)
    with pytest.raises(ValueError, match="exists and is not a directory"):
        run_preset(make_preset("plane-wave-1d"), out_dir=out_dir)
    assert afile.read_text() == "keep\n"
