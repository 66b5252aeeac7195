"""Exact nonlinear flows against a fine-step RK4 reference."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cglsolve import spectral
from cglsolve.flows import (
    DivergenceError,
    NonlinearSpec,
    cubic_flow,
    eval_g,
    quintic_flow,
)
from cglsolve.integrators import SCHEMES, Problem, Scheme, integrate
from cglsolve.operators import KroneckerOperator
from cglsolve.params import CglParameters

from oracles import power_flow_ref, random_complex, rk4_ode_ref

CUBIC = CglParameters(alpha1=1.0, beta1=2.0, alpha2=1.0, alpha3=-1.0,
                      beta3=0.2)
CQ = CglParameters(alpha1=0.5, beta1=0.5, alpha2=-0.5, alpha3=2.52,
                   beta3=1.0, alpha4=-1.0, beta4=-0.11)
COUPLED = CglParameters(alpha1=0.125, beta1=0.5, alpha2=-0.9, alpha0=-0.4,
                        alpha3=1.0, beta3=0.8, alpha4=-0.1, beta4=-0.6,
                        alpha5=0.5)

POINTS = np.array([1.0, 0.3 - 0.7j, -1.1 + 0.4j, 0.05j, 2.0 + 1.0j])


def test_cubic_flow_matches_rk4_reference():
    t = 0.3
    got = cubic_flow(POINTS, t, CUBIC)
    want = rk4_ode_ref(lambda u: CUBIC.cubic * np.abs(u) ** 2 * u, POINTS, t)
    assert np.max(np.abs(got - want)) <= 1e-10


def test_cubic_flow_positive_alpha3_before_blowup():
    t = 0.02  # below the blow-up time 1/(2*2.52*|2+i|^2) ~ 0.0397
    got = cubic_flow(POINTS, t, CQ)
    want = rk4_ode_ref(lambda u: CQ.cubic * np.abs(u) ** 2 * u, POINTS, t)
    assert np.max(np.abs(got - want)) <= 1e-10


def test_quintic_flow_matches_rk4_reference():
    t = 0.2
    got = quintic_flow(POINTS, t, CQ)
    want = rk4_ode_ref(lambda u: CQ.quintic * np.abs(u) ** 4 * u, POINTS, t)
    assert np.max(np.abs(got - want)) <= 1e-10


@pytest.mark.parametrize("flow,par", [(cubic_flow, CUBIC), (quintic_flow, CQ)])
def test_flow_property(flow, par):
    rng = np.random.default_rng(61)
    u0 = random_complex(rng, (32,))
    t, s = 0.17, 0.08
    direct = flow(u0, t + s, par)
    composed = flow(flow(u0, s, par), t, par)
    assert np.max(np.abs(direct - composed)) <= 1e-12 * max(
        1.0, np.max(np.abs(direct)))


def test_flow_at_zero_time_is_identity():
    assert np.allclose(cubic_flow(POINTS, 0.0, CUBIC), POINTS, atol=0)
    assert np.allclose(quintic_flow(POINTS, 0.0, CQ), POINTS, atol=0)


def test_cubic_blowup_detected():
    p = CglParameters(alpha1=1.0, alpha3=2.0)
    u0 = np.array([1.0 + 0.0j])
    # blow-up time is 1/(2*alpha3) = 0.25
    with pytest.raises(DivergenceError):
        cubic_flow(u0, 0.25, p)
    with pytest.raises(DivergenceError):
        cubic_flow(u0, 0.3, p)
    out = cubic_flow(u0, 0.2, p)  # still finite before the blow-up time
    assert np.all(np.isfinite(out))


def test_quintic_blowup_detected():
    p = CglParameters(alpha1=1.0, alpha3=0.0, beta3=0.0, alpha4=1.0)
    with pytest.raises(DivergenceError):
        quintic_flow(np.array([1.0 + 0.0j]), 0.25, p)


def test_zero_alpha3_is_phase_rotation():
    p = CglParameters(alpha1=1.0, beta3=0.7)
    t = 0.4
    got = cubic_flow(POINTS, t, p)
    assert np.max(np.abs(np.abs(got) - np.abs(POINTS))) <= 1e-14
    want = POINTS * np.exp(1j * 0.7 * np.abs(POINTS) ** 2 * t)
    assert np.max(np.abs(got - want)) == 0.0


@pytest.mark.parametrize("flow,par,name", [
    (cubic_flow, CglParameters(alpha1=1.0, beta3=1.0), "cubic"),
    (quintic_flow, CglParameters(alpha1=1.0, beta4=1.0), "quintic"),
])
def test_rotation_branch_non_finite_output_raises(flow, par, name):
    u0 = np.array([1.0, np.nan, np.inf])
    with np.errstate(invalid="ignore"):
        with pytest.raises(DivergenceError) as err:
            flow(u0, 0.1, par)
    assert err.value.reason == f"non-finite {name} flow output"


def test_branch_continuity_at_small_alpha3():
    # the log formula limits smoothly onto the phase-rotation branch
    eps = 1e-13
    p_small = CglParameters(alpha1=1.0, alpha3=eps, beta3=0.7)
    p_zero = CglParameters(alpha1=1.0, alpha3=0.0, beta3=0.7)
    a = cubic_flow(POINTS, 0.4, p_small)
    b = cubic_flow(POINTS, 0.4, p_zero)
    assert np.max(np.abs(a - b)) <= 1e-11


def test_zero_alpha4_quintic_identity_without_beta4():
    p = CglParameters(alpha1=1.0, alpha3=1.0, beta3=0.0)
    got = quintic_flow(POINTS, 0.9, p)
    assert np.array_equal(got, POINTS.astype(complex))


def test_eval_g_scalar_kinds():
    spec = NonlinearSpec("cubic", CUBIC)
    (g,) = eval_g(spec, (POINTS,))
    want = CUBIC.cubic * np.abs(POINTS) ** 2 * POINTS
    assert np.allclose(g, want, rtol=1e-15, atol=0)

    spec = NonlinearSpec("cubic_quintic", CQ)
    (g,) = eval_g(spec, (POINTS,))
    want = (CQ.cubic * np.abs(POINTS) ** 2 * POINTS
            + CQ.quintic * np.abs(POINTS) ** 4 * POINTS)
    assert np.allclose(g, want, rtol=1e-15, atol=0)


def test_eval_g_coupled_cross_terms():
    spec = NonlinearSpec("coupled_cubic_quintic", COUPLED)
    rng = np.random.default_rng(62)
    u = random_complex(rng, (6,))
    v = random_complex(rng, (6,))
    gu, gv = eval_g(spec, (u, v))
    wu = (COUPLED.cubic * np.abs(u) ** 2 * u
          + COUPLED.quintic * np.abs(u) ** 4 * u
          + COUPLED.alpha5 * np.abs(v) ** 2 * u)
    wv = (COUPLED.cubic * np.abs(v) ** 2 * v
          + COUPLED.quintic * np.abs(v) ** 4 * v
          + COUPLED.alpha5 * np.abs(u) ** 2 * v)
    assert np.allclose(gu, wu, rtol=1e-15, atol=0)
    assert np.allclose(gv, wv, rtol=1e-15, atol=0)


def g_subflow(spec, fields, t):
    # the "g" subflow of a non-cubic kind is one RK4 step on eval_g: one
    # step of a scheme that is that subflow alone; a zero grid operator
    # leaves the fields in physical space
    n = fields[0].size
    ops = [KroneckerOperator([np.zeros((n, n))])
           for _ in range(spec.components)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(SCHEMES, "g", Scheme("g", 4, maps=(("g", Fraction(1)),)))
        result = integrate(Problem(ops, spec), "g", fields, t, 1)
    assert not result.diverged
    return result.fields


def test_rk4_flow_close_to_exact_cubic():
    # one RK4 substep carries an O(t^5) defect against the exact flow;
    # the cubic-quintic kind with no quintic term takes the RK4 subflow
    spec = NonlinearSpec("cubic_quintic", CUBIC)

    def defect(t):
        (got,) = g_subflow(spec, (POINTS,), t)
        return np.max(np.abs(got - cubic_flow(POINTS, t, CUBIC)))

    assert defect(0.002) <= 1e-10
    assert defect(0.01) / defect(0.002) >= 1000.0  # ~5^5 for 5th order


def test_rk4_flow_coupled_matches_fine_reference():
    spec = NonlinearSpec("coupled_cubic_quintic", COUPLED)
    rng = np.random.default_rng(63)
    u = 0.8 * random_complex(rng, (5,))
    v = 0.8 * random_complex(rng, (5,))
    t = 0.35

    def f(z):
        zu, zv = z[:5], z[5:]
        gu, gv = eval_g(spec, (zu, zv))
        return np.concatenate([gu, gv])

    want = rk4_ode_ref(f, np.concatenate([u, v]), t, substeps=1)
    gu, gv = g_subflow(spec, (u, v), t)
    assert np.max(np.abs(np.concatenate([gu, gv]) - want)) <= 1e-13


def test_nonlinear_spec_validation():
    with pytest.raises(ValueError):
        NonlinearSpec("cubic", CQ)  # quintic coefficients present
    with pytest.raises(ValueError):
        NonlinearSpec("cubic_quintic", COUPLED)  # alpha5 without coupling
    with pytest.raises(ValueError):
        NonlinearSpec("septic", CUBIC)
    with pytest.raises(ValueError, match="params must be CglParameters"):
        NonlinearSpec("cubic", None)
    spec = NonlinearSpec("coupled_cubic_quintic", COUPLED)
    with pytest.raises(ValueError):
        eval_g(spec, (POINTS,))


@pytest.mark.parametrize("fields,out,match", [
    ((POINTS, POINTS[:4]), None, "share a shape"),
    ((POINTS, POINTS), (POINTS.copy(),), "expected 2 out arrays"),
], ids=["shapes", "out-count"])
def test_eval_g_rejects_mismatched_components(fields, out, match):
    spec = NonlinearSpec("coupled_cubic_quintic", COUPLED)
    with pytest.raises(ValueError, match=match):
        eval_g(spec, fields, out=out)


# (flow, params, a, b, p, t): y = p a |u|^p t stays below 1 for the
# standard-normal draws used here, and CQ's positive alpha3 grows them
FLOWS = [
    (cubic_flow, CUBIC, CUBIC.alpha3, CUBIC.beta3, 2, 0.3),
    (cubic_flow, CQ, CQ.alpha3, CQ.beta3, 2, 0.002),
    (quintic_flow, CQ, CQ.alpha4, CQ.beta4, 4, 0.05),
]
FLOW_IDS = ["cubic", "cubic-growing", "quintic"]


def _flow_inputs():
    rng = np.random.default_rng(64)
    big = random_complex(rng, (66, 82, 30))
    c = random_complex(rng, (33, 41, 29))
    return {
        "33x41x29-C": c,
        "33x41x29-F": np.asfortranarray(c),
        "33x41x29-strided": big[::2, 1::2, 1:],
        "128x64x8-C": random_complex(rng, (128, 64, 8)),
        "128x64x8-F": np.asfortranarray(random_complex(rng, (128, 64, 8))),
        "128x64x8-strided": random_complex(rng, (64, 256, 8)).transpose(
            1, 0, 2)[::2],
        "1d-below-floor": random_complex(rng, (1000,)),
    }


@pytest.mark.parametrize("name", list(_flow_inputs()))
@pytest.mark.parametrize("flow,par,a,b,p,t", FLOWS, ids=FLOW_IDS)
def test_flow_same_bits_for_any_slab_count(name, flow, par, a, b, p, t,
                                           monkeypatch):
    u0 = _flow_inputs()[name]
    before = u0.copy()
    results = []
    for threads in (1, 2, 5):
        monkeypatch.setattr(spectral, "_THREADS", threads)
        results.append(flow(u0, t, par))
    for got in results[1:]:
        assert np.array_equal(got, results[0])
    got = results[0]
    assert np.array_equal(u0, before)
    if u0.flags.f_contiguous:
        assert got.flags.f_contiguous
    elif u0.flags.c_contiguous:
        assert got.flags.c_contiguous
    want = power_flow_ref(u0, t, a, b, p)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.fixture(params=[2, 5], ids=["2-slabs", "5-slabs"])
def flow_slabs(request, monkeypatch):
    monkeypatch.setattr(spectral, "_THREADS", request.param)
    return request.param


@pytest.mark.parametrize("blow_up_at", [0, -1], ids=["first", "last"])
def test_blow_up_anywhere_beats_non_finite_output(blow_up_at, flow_slabs):
    p = CglParameters(alpha1=1.0, alpha3=2.0)  # blow-up time 1/(4|u|^2)
    u0 = np.full((64, 64, 16), 0.1 + 0.0j)
    u0.flat[blow_up_at] = 10.0
    u0.flat[-1 - blow_up_at] = np.nan  # in another slab and chunk
    with np.errstate(invalid="ignore"):
        with pytest.raises(DivergenceError) as err:
            cubic_flow(u0, 0.01, p)
    assert err.value.reason == "finite-time blow-up in cubic flow"


@pytest.mark.parametrize("shape", [(5,), (64, 64, 16)])
def test_nan_input_is_non_finite_not_blow_up(shape, flow_slabs):
    u0 = np.full(shape, 0.1 + 0.0j)
    u0.flat[-1] = complex(np.nan, 0.0)
    with np.errstate(invalid="ignore"):
        with pytest.raises(DivergenceError) as err:
            quintic_flow(u0, 0.01, CQ)
    assert err.value.reason == "non-finite quintic flow output"


def test_callers_errstate_applies_in_flow_threads(flow_slabs):
    u0 = np.full((64, 64, 16), 0.5 + 0.0j)
    u0[-1, -1, -1] = 1e200  # |u|^2 overflows in the last slab's thread
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            cubic_flow(u0, 0.1, CUBIC)
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError, match="non-finite cubic"):
            cubic_flow(u0, 0.1, CUBIC)


@st.composite
def near_slab_floor(draw):
    """d = 1..3 extents whose product lies near the 2^15 slab floor."""
    d = draw(st.integers(1, 3))
    size = draw(st.one_of(st.integers(2 ** 14, 2 ** 16),
                          st.sampled_from([2 ** 15 - 1, 2 ** 15,
                                           2 ** 15 + 1])))
    head = [draw(st.integers(1, 12)) for _ in range(d - 1)]
    return tuple(head) + (max(1, size // math.prod(head)),)


@settings(max_examples=40, deadline=None)
@given(quintic=st.booleans(), shape=near_slab_floor(),
       alpha=st.floats(-2.0, 2.0), beta=st.floats(-2.0, 2.0),
       total=st.floats(0.01, 0.4), split=st.floats(0.05, 0.95),
       seed=st.integers(0, 2 ** 32 - 1))
def test_exact_flows_compose(quintic, shape, alpha, beta, total, split,
                             seed):
    # flow(flow(u, s), t) = flow(u, s + t), which split4's merged middle
    # flow relies on. |u| <= 1, and a growing alpha keeps y = p alpha
    # |u|^p t <= 0.9, short of blow-up. Over 600 draws of this test the
    # worst error was 3.4e-15 of the largest modulus.
    p = 4 if quintic else 2
    u = random_complex(np.random.default_rng(seed), shape)
    u /= np.max(np.abs(u))
    if alpha > 0:
        total = min(total, 0.9 / (p * alpha))
    coeffs = ({"alpha4": alpha, "beta4": beta} if quintic
              else {"alpha3": alpha, "beta3": beta})
    params = CglParameters(alpha1=1.0, **coeffs)
    flow = quintic_flow if quintic else cubic_flow
    s = split * total
    t = total - s
    composed = flow(flow(u, s, params), t, params)
    direct = flow(u, s + t, params)
    assert np.max(np.abs(composed - direct)) <= 2e-14 * np.max(np.abs(direct))


def _state_with_phases(phi, p, a, b, t, rng):
    """u0 whose flow rotates entry j by phi[j]: L = log1p(-y) = -phi p a / b
    (phi must have the sign of b), y = p a |u0|^p t."""
    log = -phi * p * a / b
    modulus = (-np.expm1(log) / (p * a * t)) ** (1.0 / p)
    return modulus * np.exp(2j * np.pi * rng.random(phi.size))


@pytest.mark.parametrize("p", [2, 4])
@pytest.mark.parametrize("a", [-1.0, 0.5], ids=["decaying", "growing"])
@pytest.mark.parametrize("turns", [0.5, 3.5], ids=["half-turn", "beyond"])
@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
def test_flow_phases_match_the_oracle(p, a, turns, sign):
    # |phi| up to `turns` full turns (half a turn ends at pi), reached at
    # L = 2 (decaying) or -1/2 (growing, y = 0.39); nearer blow-up, y's
    # rounding dominates the error
    rng = np.random.default_rng(65)
    top = 2.0 * np.pi * turns
    b = sign * top * p * abs(a) / (2.0 if a < 0 else 0.5)
    phi = sign * np.linspace(top / 40001, top, 40001)
    t = 0.3
    u0 = _state_with_phases(phi, p, a, b, t, rng)
    flow = cubic_flow if p == 2 else quintic_flow
    coeffs = ({"alpha3": a, "beta3": b} if p == 2
              else {"alpha4": a, "beta4": b})
    got = flow(u0, t, CglParameters(alpha1=1.0, **coeffs))
    want = power_flow_ref(u0, t, a, b, p)
    reached = -b * np.log1p(-p * a * np.abs(u0) ** p * t) / (p * a)
    assert np.max(np.abs(reached)) >= top * (1 - 1e-9)
    bound = 1e-15 * (1.0 + np.abs(reached)) * np.max(np.abs(want))
    assert np.all(np.abs(got - want) <= bound)


@pytest.mark.parametrize("per_slab", [-1, 1], ids=["chunk-1", "chunk+1"])
@pytest.mark.parametrize("threads", [1, 2, 5])
def test_flow_chunk_edges_on_slabs(per_slab, threads, monkeypatch):
    # each slab is one chunk +- 1 entries, so the last slab ends in a partial
    # chunk; a bad entry there alone decides the reason
    monkeypatch.setattr(spectral, "_THREADS", threads)
    n = threads * (spectral._CHUNK + per_slab)
    par = CglParameters(alpha1=1.0, alpha3=2.0, beta3=0.5)
    u0 = 0.1 * random_complex(np.random.default_rng(66), (n,))
    want = power_flow_ref(u0, 0.01, par.alpha3, par.beta3, 2)
    assert np.max(np.abs(cubic_flow(u0, 0.01, par) - want)) <= (
        1e-15 * np.max(np.abs(want)))
    for bad, reason in ((10.0, "finite-time blow-up in cubic flow"),
                        (np.nan, "non-finite cubic flow output")):
        u = u0.copy()
        u[-1] = bad
        with np.errstate(invalid="ignore"):
            with pytest.raises(DivergenceError) as err:
                cubic_flow(u, 0.01, par)
        assert err.value.reason == reason


@pytest.mark.parametrize("name", ["33x41x29-C", "33x41x29-F",
                                  "128x64x8-C", "128x64x8-F",
                                  "1d-below-floor"])
@pytest.mark.parametrize("flow,par,a,b,p,t", FLOWS + [
    (cubic_flow, CglParameters(alpha1=1.0, beta3=0.7), 0.0, 0.7, 2, 0.4)],
    ids=FLOW_IDS + ["rotation"])
def test_flow_in_place_equals_out_of_place(name, flow, par, a, b, p, t):
    u0 = _flow_inputs()[name]
    want = flow(u0, t, par)
    out = u0.copy(order="K")
    assert flow(out, t, par, out=out) is out
    assert np.array_equal(out, want)
