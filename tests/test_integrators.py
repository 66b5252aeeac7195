"""Scheme reductions, frozen one-step values, orders, divergence handling."""

from fractions import Fraction

import numpy as np
import pytest

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
from cglsolve.tensors import assemble_kron_sum, unvec, vec

from oracles import random_complex

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
    k = assemble_kron_sum(op.matrices)
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


def test_integrate_is_deterministic():
    problem, exact = plane_wave_problem(n=24)
    u0 = dft_forward(exact(0.0))
    a = integrate(problem, "if4", (u0,), 1.0, 9).fields[0]
    b = integrate(problem, "if4", (u0,), 1.0, 9).fields[0]
    assert np.array_equal(a, b)


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


def test_scheme_table():
    assert set(SCHEMES) == {"rk2", "rk4", "strang", "split4", "strang_3t",
                            "split4_3t", "if2", "if4"}
    assert SCHEMES["if4"].fractions == (Fraction(1, 2), Fraction(1))
    assert SCHEMES["rk2"].uses_exponentials is False
    assert SCHEMES["split4"].order == 4
