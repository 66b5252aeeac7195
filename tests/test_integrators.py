"""Scheme reductions, frozen one-step values, orders, divergence handling."""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from cglsolve import integrators, operators, spectral
from cglsolve.experiments import build_problem, initial_state, make_preset
from cglsolve.flows import NonlinearSpec
from cglsolve.integrators import SCHEMES, IntegrationResult, Problem, integrate
from cglsolve.linalg import expm_pade
from cglsolve.operators import (
    BlockOperator,
    KroneckerOperator,
    build_fd_operator,
    build_periodic_operator,
)
from cglsolve.params import CglParameters
from cglsolve.spectral import FourierGrid, dft_forward

from oracles import kron_sum_matrix, random_complex, unvec, vec

CUBIC = CglParameters(alpha1=1.0, beta1=2.0, alpha2=1.0, alpha3=-1.0,
                      beta3=0.2)
LINEAR_ONLY = CglParameters(alpha1=1.0, beta1=2.0, alpha2=1.0)
EXP_SCHEMES = ("strang", "split4", "if2", "if4", "strang_3t", "split4_3t")


def linear_problem(extents=(7, 6), lengths=(5.0, 4.0)):
    op = build_fd_operator(LINEAR_ONLY, extents, lengths, "dirichlet")
    return Problem(op, NonlinearSpec("cubic", LINEAR_ONLY)), op


@pytest.mark.parametrize("scheme", EXP_SCHEMES)
def test_zero_nonlinearity_reduces_to_exponential(scheme):
    # with g = 0 every exponential scheme is exactly exp(tau K)
    problem, op = linear_problem()
    rng = np.random.default_rng(71)
    u0 = random_complex(rng, (7, 6))
    tau = 0.08
    res = integrate(problem, scheme, (u0,), tau, 1)
    k = kron_sum_matrix(op.matrices)
    want = unvec(expm_pade(k, tau) @ vec(u0), (7, 6))
    err = np.max(np.abs(res.fields[0] - want)) / np.max(np.abs(want))
    assert err <= 1e-11


@pytest.mark.parametrize("pair", [("if2", "rk2"), ("if4", "rk4")])
def test_zero_operator_reduces_lawson_to_rk(pair):
    # with K = 0 the Lawson schemes collapse onto the classical RK schemes
    lawson, rk = pair
    op = KroneckerOperator([np.zeros((5, 5))])
    spec = NonlinearSpec("cubic", CUBIC)
    rng = np.random.default_rng(72)
    u0 = 0.7 * random_complex(rng, (5,))
    a = integrate(Problem(op, spec), lawson, (u0,), 0.2, 3).fields[0]
    b = integrate(Problem(op, spec), rk, (u0,), 0.2, 3).fields[0]
    assert np.max(np.abs(a - b)) <= 1e-13


def test_rk4_frozen_scalar_value():
    # u' = u, one step of size 0.1 from 1.0: classical RK4 gives the
    # degree-4 Taylor polynomial of e^0.1
    op = KroneckerOperator([np.array([[1.0]])])
    spec = NonlinearSpec("cubic", CglParameters(alpha1=1.0, alpha2=0.0))
    res = integrate(Problem(op, spec), "rk4", (np.array([1.0 + 0j]),), 0.1, 1)
    assert abs(res.fields[0][0] - 265241.0 / 240000.0) <= 5e-16


def test_rk2_frozen_scalar_value():
    op = KroneckerOperator([np.array([[1.0]])])
    spec = NonlinearSpec("cubic", CglParameters(alpha1=1.0, alpha2=0.0))
    res = integrate(Problem(op, spec), "rk2", (np.array([1.0 + 0j]),), 0.1, 1)
    assert abs(res.fields[0][0] - 1.105) <= 1e-16


def test_strang_equals_three_term_when_quintic_absent():
    g = FourierGrid((16,), ((0.0, 50.0),))
    op1 = build_periodic_operator(g, CUBIC)
    op2 = build_periodic_operator(g, CUBIC)
    spec = NonlinearSpec("cubic", CUBIC)
    x = g.nodes(0)
    u0 = dft_forward(0.5 * np.exp(2j * np.pi * x / 50.0))
    a = integrate(Problem(op1, spec), "strang", (u0,), 0.5, 8).fields[0]
    b = integrate(Problem(op2, spec), "strang_3t", (u0,), 0.5, 8).fields[0]
    assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(a))


def plane_wave_problem(n=32, L=50.0):
    g = FourierGrid((n,), ((0.0, L),))
    op = build_periodic_operator(g, CUBIC)
    spec = NonlinearSpec("cubic", CUBIC)
    kappa = 2.0 * np.pi / L
    rho = np.sqrt((CUBIC.alpha1 * kappa ** 2 - CUBIC.alpha2) / CUBIC.alpha3)
    omega = CUBIC.beta1 * kappa ** 2 - CUBIC.beta3 * rho ** 2
    x = g.nodes(0)

    def exact(t):
        return rho * np.exp(1j * (kappa * x - omega * t))

    return Problem(op, spec), exact


@pytest.mark.parametrize("scheme,band", [
    ("strang", (1.7, 2.3)),
    ("if4", (3.7, 4.3)),
])
def test_measured_order_on_plane_wave(scheme, band):
    problem, exact = plane_wave_problem()
    t_final = 1.0
    u0 = dft_forward(exact(0.0))
    ref = exact(t_final)
    errs, taus = [], []
    for m in (8, 12, 18, 27):
        res = integrate(problem, scheme, (u0,), t_final, m)
        got = np.fft.ifft(res.fields[0])
        errs.append(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))
        taus.append(t_final / m)
    slope = np.polyfit(np.log(taus), np.log(errs), 1)[0]
    assert band[0] <= slope <= band[1], (scheme, slope, errs)


def test_divergence_reported_with_step_index():
    # explicit RK at tau far outside its stability region must blow up
    op = build_fd_operator(CUBIC, (64,), (100.0,), "dirichlet")
    spec = NonlinearSpec("cubic", CUBIC)
    rng = np.random.default_rng(73)
    u0 = (rng.standard_normal(64) / 50.0).astype(complex)
    res = integrate(Problem(op, spec), "rk4", (u0,), 12.0, 10)
    assert res.diverged
    assert 1 <= res.diverged_at <= 10
    assert res.reason


def test_exponential_schemes_survive_large_steps():
    op = build_fd_operator(CUBIC, (64,), (100.0,), "dirichlet")
    spec = NonlinearSpec("cubic", CUBIC)
    rng = np.random.default_rng(73)
    u0 = (rng.standard_normal(64) / 5000.0).astype(complex)
    for scheme in ("strang", "if2", "if4", "split4"):
        res = integrate(Problem(op, spec), scheme, (u0,), 6.0, 8)
        assert not res.diverged, scheme
        assert np.all(np.isfinite(res.fields[0]))


def test_snapshot_observer_called_at_requested_steps():
    problem, _ = plane_wave_problem(n=16)
    rng = np.random.default_rng(74)
    u0 = random_complex(rng, (16,))
    seen = []
    integrate(problem, "strang", (u0,), 1.0, 10,
              snapshot_steps=(3, 7, 10),
              on_snapshot=lambda k, t, fields: seen.append((k, t)))
    assert [k for k, _ in seen] == [3, 7, 10]
    assert seen[-1][1] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("step", [0, -1, 5, 2.7, 2.0, True, "2"])
def test_integrate_rejects_bad_snapshot_steps(step):
    # bools and floats were once mapped to steps, and the rest ignored
    problem, _ = plane_wave_problem(n=16)
    u0 = random_complex(np.random.default_rng(74), (16,))
    seen = []
    with pytest.raises(ValueError, match="snapshot steps"):
        integrate(problem, "if4", (u0,), 1.0, 4, snapshot_steps=[1, step],
                  on_snapshot=lambda k, t, fields: seen.append(k))
    assert seen == []


def test_integrate_is_deterministic():
    problem, exact = plane_wave_problem(n=24)
    u0 = dft_forward(exact(0.0))
    a = integrate(problem, "if4", (u0,), 1.0, 9).fields[0]
    b = integrate(problem, "if4", (u0,), 1.0, 9).fields[0]
    assert np.array_equal(a, b)


@pytest.mark.parametrize("scheme", EXP_SCHEMES)
def test_a_nested_run_leaves_the_outer_run_alone(scheme):
    # the operators hold no run state: a run on the same problem with
    # another tau, made from on_snapshot, changes no bit of the outer run
    cfg = make_preset("plane-wave-1d")
    problem = build_problem(cfg)
    u0 = problem.from_physical(initial_state(cfg))
    tau = cfg.t_final / cfg.steps
    plain = integrate(problem, scheme, u0, 8 * tau, 8)
    inner = []

    def nested(k, t, fields):
        inner.append(integrate(problem, scheme, fields, 5 * 0.7 * tau, 5))

    outer = integrate(problem, scheme, u0, 8 * tau, 8,
                      snapshot_steps=range(1, 9), on_snapshot=nested)
    assert len(inner) == 8 and not any(r.diverged for r in inner)
    assert outer.fields[0].tobytes() == plain.fields[0].tobytes()


def test_coupled_requires_block_operator():
    p = CglParameters(alpha1=0.125, beta1=0.5, alpha2=-0.9, alpha0=-0.4,
                      alpha3=1.0, beta3=0.8, alpha4=-0.1, beta4=-0.6,
                      alpha5=0.5)
    g = FourierGrid((8,), ((0.0, 70.0),))
    op = build_periodic_operator(g, p)
    spec = NonlinearSpec("coupled_cubic_quintic", p)
    with pytest.raises(ValueError):
        Problem(op, spec)
    block = BlockOperator([build_periodic_operator(g, p, +1),
                           build_periodic_operator(g, p, -1)])
    problem = Problem(block, spec)
    rng = np.random.default_rng(75)
    u0 = dft_forward(0.5 * random_complex(rng, (8,)))
    v0 = dft_forward(0.5 * random_complex(rng, (8,)))
    res = integrate(problem, "if4", (u0, v0), 0.3, 5)
    assert not res.diverged
    assert len(res.fields) == 2


def test_three_term_rejects_coupled_kind():
    p = CglParameters(alpha1=0.125, beta1=0.5, alpha2=-0.9, alpha0=-0.4,
                      alpha3=1.0, beta3=0.8, alpha4=-0.1, beta4=-0.6,
                      alpha5=0.5)
    g = FourierGrid((8,), ((0.0, 70.0),))
    block = BlockOperator([build_periodic_operator(g, p, +1),
                           build_periodic_operator(g, p, -1)])
    problem = Problem(block, NonlinearSpec("coupled_cubic_quintic", p))
    u0 = np.zeros(8, dtype=complex)
    with pytest.raises(ValueError):
        integrate(problem, "strang_3t", (u0, u0), 0.1, 2)


def test_unknown_scheme_rejected():
    problem, _ = plane_wave_problem(n=16)
    with pytest.raises(ValueError):
        integrate(problem, "etdrk4", (np.zeros(16, dtype=complex),), 1.0, 2)
    with pytest.raises(ValueError):
        integrate(problem, "rk4", (np.zeros(16, dtype=complex),), 1.0, 0)


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
@pytest.mark.parametrize("t_final", [0.0, -1.0, np.inf, np.nan])
def test_non_positive_or_non_finite_t_final_rejected(scheme, t_final):
    problem, _ = plane_wave_problem(n=16)
    with pytest.raises(ValueError, match="t_final"):
        integrate(problem, scheme, (np.zeros(16, dtype=complex),), t_final,
                  4)


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)],
                         ids=["nan", "inf", "imag-inf"])
def test_non_finite_initial_fields_rejected(scheme, bad, monkeypatch):
    problem, _ = plane_wave_problem(n=16)

    def prepare(*args):
        raise AssertionError("prepare ran on non-finite initial fields")

    monkeypatch.setattr(problem, "prepare", prepare)
    u0 = np.zeros(16, dtype=complex)
    u0[5] = bad
    with pytest.raises(ValueError, match="initial fields must be finite"):
        integrate(problem, scheme, (u0,), 1.0, 4)


CQ = CglParameters(alpha1=0.5, beta1=0.5, alpha2=-0.5, alpha3=2.52,
                   beta3=1.0, alpha4=-1.0, beta4=-0.11)


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
@pytest.mark.parametrize("fourier", [True, False], ids=["fourier", "fd"])
def test_steps_never_write_the_callers_state(scheme, fourier, monkeypatch):
    # 32^3 entries reach the threaded kernels, whose combinations write
    # into stage arrays; the initial state and the prepared exponentials
    # must come out unchanged
    shape = (32, 32, 32)
    if fourier:
        grid = FourierGrid(shape, ((0.0, 20.0),) * 3)
        op = build_periodic_operator(grid, CQ)
    else:
        op = build_fd_operator(CQ, shape, (20.0,) * 3, "dirichlet")
    problem = Problem(op, NonlinearSpec("cubic_quintic", CQ))
    u0 = 0.3 * random_complex(np.random.default_rng(74), shape)
    saved = u0.copy()
    prepared = []

    def prepare(tau, fractions, _prepare=op.prepare):
        exps = _prepare(tau, fractions)
        prepared.append((exps, {f: np.array(e) for f, e in exps.items()}))
        return exps

    monkeypatch.setattr(op, "prepare", prepare)
    res = integrate(problem, scheme, (u0,), 2e-3, 2)
    assert not res.diverged
    assert np.array_equal(u0, saved)
    assert len(prepared) == 1
    exps, copies = prepared[0]
    for f, e in exps.items():
        assert np.array_equal(np.array(e), copies[f])


def test_scheme_table():
    # the exponential fractions are derived from the tableaux and maps
    half, one = Fraction(1, 2), Fraction(1)
    assert {name: s.fractions for name, s in SCHEMES.items()} == {
        "rk2": (), "rk4": (), "strang": (one,), "strang_3t": (one,),
        "if2": (one,), "split4": (half, one), "split4_3t": (half, one),
        "if4": (half, one)}
    assert SCHEMES["split4"].order == 4


@pytest.mark.parametrize("steps", [2.5, "ten", True, None])
def test_non_integer_steps_rejected(steps):
    problem, _ = plane_wave_problem(n=16)
    with pytest.raises(ValueError, match="steps must be an integer"):
        integrate(problem, "if4", (np.zeros(16, dtype=complex),), 1.0, steps)


# the names the benchmark's tracer rebinds
TRACED = [(integrators, "cubic_flow"), (integrators, "quintic_flow"),
          (integrators, "eval_g"), (integrators, "dft_forward"),
          (integrators, "dft_inverse"), (operators, "tucker_apply"),
          (operators, "pointwise_apply")]
COUPLED = CglParameters(alpha1=0.125, beta1=0.5, alpha2=-0.9, alpha0=-0.4,
                        alpha3=1.0, beta3=0.8, alpha4=-0.1, beta4=-0.6,
                        alpha5=0.5)


def counting_problem(name):
    """A small FD cubic, Fourier cubic-quintic or coupled problem."""
    grid = FourierGrid((8, 6), ((0.0, 20.0), (0.0, 10.0)))
    if name == "fd":
        op = build_fd_operator(CUBIC, (8, 7, 6), (10.0,) * 3, "dirichlet")
        return Problem(op, NonlinearSpec("cubic", CUBIC))
    if name == "fourier":
        return Problem(build_periodic_operator(grid, CQ),
                       NonlinearSpec("cubic_quintic", CQ))
    block = BlockOperator([build_periodic_operator(grid, COUPLED, 1),
                           build_periodic_operator(grid, COUPLED, -1)])
    return Problem(block, NonlinearSpec("coupled_cubic_quintic", COUPLED))


# per-step calls of the traced names; None: the scheme is rejected. The
# rows marked with a benchmark workload equal its loop_calls in
# benchmark/workloads.py. The "g" subflow of a non-cubic kind is one RK4
# step, 4 eval_g calls.
STEP_CALLS = {
    ("fd", "rk2"): {"eval_g": 2},
    ("fd", "rk4"): {"eval_g": 4},
    ("fd", "strang"): {"cubic_flow": 2, "tucker_apply": 1},
    ("fd", "split4"): {"cubic_flow": 5, "tucker_apply": 3},  # fd3d
    ("fd", "strang_3t"): {"cubic_flow": 2, "quintic_flow": 2,
                          "tucker_apply": 1},
    ("fd", "split4_3t"): {"cubic_flow": 6, "quintic_flow": 6,
                          "tucker_apply": 3},
    ("fd", "if2"): {"eval_g": 2, "tucker_apply": 2},
    ("fd", "if4"): {"eval_g": 4, "tucker_apply": 6},
    ("fourier", "rk2"): {"dft_forward": 2, "dft_inverse": 2, "eval_g": 2,
                         "pointwise_apply": 2},
    ("fourier", "rk4"): {"dft_forward": 4, "dft_inverse": 4, "eval_g": 4,
                         "pointwise_apply": 4},
    ("fourier", "strang"): {"dft_forward": 2, "dft_inverse": 2,
                            "eval_g": 8, "pointwise_apply": 1},
    ("fourier", "split4"): {"dft_forward": 5, "dft_inverse": 5,
                            "eval_g": 20, "pointwise_apply": 3},
    ("fourier", "strang_3t"): {"cubic_flow": 2, "quintic_flow": 2,
                               "dft_forward": 4, "dft_inverse": 4,
                               "pointwise_apply": 1},
    ("fourier", "split4_3t"): {"cubic_flow": 6, "quintic_flow": 6,
                               "dft_forward": 12, "dft_inverse": 12,
                               "pointwise_apply": 3},  # fourier3d-3t
    ("fourier", "if2"): {"dft_forward": 2, "dft_inverse": 2, "eval_g": 2,
                         "pointwise_apply": 2},
    ("fourier", "if4"): {"dft_forward": 4, "dft_inverse": 4, "eval_g": 4,
                         "pointwise_apply": 6},  # fourier3d
    ("coupled", "rk2"): {"dft_forward": 4, "dft_inverse": 4, "eval_g": 2,
                         "pointwise_apply": 4},
    ("coupled", "rk4"): {"dft_forward": 8, "dft_inverse": 8, "eval_g": 4,
                         "pointwise_apply": 8},
    ("coupled", "strang"): {"dft_forward": 4, "dft_inverse": 4,
                            "eval_g": 8, "pointwise_apply": 2},
    ("coupled", "split4"): {"dft_forward": 10, "dft_inverse": 10,
                            "eval_g": 20, "pointwise_apply": 6},
    ("coupled", "strang_3t"): None,
    ("coupled", "split4_3t"): None,
    ("coupled", "if2"): {"dft_forward": 4, "dft_inverse": 4, "eval_g": 2,
                         "pointwise_apply": 4},
    ("coupled", "if4"): {"dft_forward": 8, "dft_inverse": 8, "eval_g": 4,
                         "pointwise_apply": 12},  # coupled2d
}


@pytest.mark.parametrize("name,scheme", sorted(STEP_CALLS))
def test_per_step_layer_calls(name, scheme, monkeypatch):
    calls = Counter()
    for owner, attr in TRACED:
        def counted(*args, _fn=getattr(owner, attr), _attr=attr, **kwargs):
            calls[_attr] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, attr, counted)
    problem = counting_problem(name)
    fields = tuple(np.full(problem.operator.shape, 0.1 + 0.05j)
                   for _ in range(problem.nonlinear.components))
    want = STEP_CALLS[name, scheme]
    if want is None:
        with pytest.raises(ValueError, match="coupled cross term"):
            integrate(problem, scheme, fields, 0.02, 2)
        return
    res = integrate(problem, scheme, fields, 0.02, 2)
    assert not res.diverged
    assert calls == Counter({k: 2 * n for k, n in want.items()})


BLOW_UP = CglParameters(alpha1=0.01, beta1=0.1, alpha3=1.0, beta3=0.5)


@pytest.mark.parametrize("reason", ["finite-time blow-up in cubic flow",
                                    "non-finite state"])
def test_divergence_returns_the_last_finite_state(reason):
    # tau is a power of two, so the shorter run steps with the same tau
    if "blow-up" in reason:
        op = build_fd_operator(BLOW_UP, (16,), (10.0,), "dirichlet")
        problem = Problem(op, NonlinearSpec("cubic", BLOW_UP))
        u0, scheme, tau = np.full(16, 0.6 + 0j), "strang", 0.25
    else:
        op = build_fd_operator(CUBIC, (64,), (100.0,), "dirichlet")
        problem = Problem(op, NonlinearSpec("cubic", CUBIC))
        rng = np.random.default_rng(73)
        u0 = (rng.standard_normal(64) / 50.0).astype(complex)
        scheme, tau = "rk4", 1.0
    res = integrate(problem, scheme, (u0,), 8 * tau, 8)
    assert res.diverged and res.reason == reason
    k = res.diverged_at
    assert k >= 2
    before = integrate(problem, scheme, (u0,), (k - 1) * tau, k - 1)
    assert not before.diverged
    assert np.all(np.isfinite(res.fields[0]))
    assert np.array_equal(res.fields[0], before.fields[0])


def problem_of(name, shape):
    """An FD cubic-quintic, Fourier cubic-quintic or coupled problem."""
    if name == "fd":
        op = build_fd_operator(CQ, shape, (20.0,) * len(shape), "dirichlet")
        return Problem(op, NonlinearSpec("cubic_quintic", CQ))
    grid = FourierGrid(shape, ((0.0, 20.0),) * len(shape))
    if name == "fourier":
        return Problem(build_periodic_operator(grid, CQ),
                       NonlinearSpec("cubic_quintic", CQ))
    block = BlockOperator([build_periodic_operator(grid, COUPLED, 1),
                           build_periodic_operator(grid, COUPLED, -1)])
    return Problem(block, NonlinearSpec("coupled_cubic_quintic", COUPLED))


def initial_fields(problem, seed):
    rng = np.random.default_rng(seed)
    fields = tuple(0.3 * random_complex(rng, problem.operator.shape)
                   for _ in range(problem.nonlinear.components))
    if problem.fourier:
        return problem.from_physical(fields)
    return tuple(np.asfortranarray(u) for u in fields)  # as the solver's


RUNNABLE = sorted(k for k, v in STEP_CALLS.items() if v is not None)


@pytest.mark.parametrize("name,scheme", RUNNABLE)
def test_kernel_path_steps_equal_the_default(name, scheme, monkeypatch):
    # 2^15 entries per component reach the threaded kernels: every
    # combination runs the chunked kernel, writing into workspace arrays,
    # and three steps reuse them. With the floor raised, every layer runs
    # its whole-array path.
    shape = (256, 128) if name == "coupled" else (32, 32, 32)
    problem = problem_of(name, shape)
    u0 = initial_fields(problem, 76)
    got = integrate(problem, scheme, u0, 3e-3, 3)
    monkeypatch.setattr(spectral, "_SERIAL_BELOW", 1 << 30)
    want = integrate(problem, scheme, u0, 3e-3, 3)
    assert not want.diverged and not got.diverged
    for a, b in zip(got.fields, want.fields):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name,scheme", RUNNABLE)
def test_states_kept_by_the_caller_are_never_written(name, scheme):
    shape = (12, 10) if name == "coupled" else (8, 7, 6)
    problem = problem_of(name, shape)
    u0 = initial_fields(problem, 77)
    saved0 = tuple(u.copy() for u in u0)
    kept = []
    res = integrate(problem, scheme, u0, 4e-3, 4, snapshot_steps=range(1, 5),
                    on_snapshot=lambda k, t, fields: kept.append(
                        (fields, tuple(u.copy() for u in fields))))
    assert not res.diverged and len(kept) == 4
    assert kept[-1][0] is res.fields
    for fields, copies in [(u0, saved0)] + kept:
        assert all(np.array_equal(a, b) for a, b in zip(fields, copies))


# the most workspace tuples a step holds at once: each stage value, a
# stage's exponential while its input is still read, and the coarse map of
# split4 while the fine one runs. No more than the step arrays that were
# live at once before the workspace, when every layer returned new arrays.
# An exponential writes into its own input only in Fourier space, and the
# "g" subflow of a non-cubic kind holds its four RK4 stages.
STEP_PEAK = {
    "fd": {"rk2": 2, "rk4": 4, "if2": 3, "if4": 5, "strang": 2,
           "strang_3t": 2, "split4": 3, "split4_3t": 3},
    "fourier": {"rk2": 2, "rk4": 4, "if2": 2, "if4": 5, "strang": 5,
                "strang_3t": 1, "split4": 6, "split4_3t": 2},
}


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
@pytest.mark.parametrize("name", sorted(STEP_PEAK))
def test_workspace_holds_a_steps_peak(scheme, name, monkeypatch):
    made = []
    take = integrators._Workspace.take

    def counted(ws):
        made.append(not ws._free)
        return take(ws)

    monkeypatch.setattr(integrators._Workspace, "take", counted)
    problem = counting_problem(name)
    fields = tuple(np.full(problem.operator.shape, 0.1 + 0.05j)
                   for _ in range(problem.nonlinear.components))
    integrate(problem, scheme, fields, 0.03, 3)
    # each step's result leaves the workspace: one new tuple a step after
    # the first step's peak
    assert sum(made) == STEP_PEAK[name][scheme] + 2
