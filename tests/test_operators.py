"""FD matrices (bit-exact rows, convergence order) and operator classes."""

from fractions import Fraction

import numpy as np
import pytest

from cglsolve.linalg import expm_pade
from cglsolve.operators import (
    BlockOperator,
    FourierOperator,
    KroneckerOperator,
    build_fd_operator,
    build_periodic_operator,
    fd_nodes,
    fd_second_derivative_dirichlet,
    fd_second_derivative_dirichlet_neumann,
)
from cglsolve.params import CglParameters
from cglsolve.spectral import FourierGrid

from oracles import kron_sum_matrix, random_complex, vec

PARAMS = CglParameters(alpha1=1.0, beta1=2.0, alpha2=1.0, alpha3=-1.0,
                       beta3=0.2)


def expected_dirichlet(n, length):
    h = length / (n + 1)
    num = np.zeros((n, n))
    num[0, :5] = (-15.0, -4.0, 14.0, -6.0, 1.0)
    num[1, :4] = (16.0, -30.0, 16.0, -1.0)
    for i in range(2, n - 2):
        num[i, i - 2:i + 3] = (-1.0, 16.0, -30.0, 16.0, -1.0)
    num[n - 2, n - 4:] = (-1.0, 16.0, -30.0, 16.0)
    num[n - 1, n - 5:] = (1.0, -6.0, 14.0, -4.0, -15.0)
    return num / (12.0 * h * h)


def expected_dirichlet_neumann(n, length):
    h = length / n
    num = np.zeros((n, n))
    num[0, :5] = (-15.0, -4.0, 14.0, -6.0, 1.0)
    num[1, :4] = (16.0, -30.0, 16.0, -1.0)
    for i in range(2, n - 2):
        num[i, i - 2:i + 3] = (-1.0, 16.0, -30.0, 16.0, -1.0)
    num[n - 2, n - 6:] = (1.0, -6.0, 14.0, -4.0, -15.0, 10.0)
    num[n - 1, n - 5:] = (1.0, -8.0 / 3.0, -6.0, 56.0, -145.0 / 3.0)
    return num / (12.0 * h * h)


@pytest.mark.parametrize("n", [6, 7, 10, 33])
def test_dirichlet_rows_bit_exact(n):
    got = fd_second_derivative_dirichlet(n, 10.0)
    assert np.array_equal(got, expected_dirichlet(n, 10.0))


@pytest.mark.parametrize("n", [7, 8, 11, 40])
def test_dirichlet_neumann_rows_bit_exact(n):
    got = fd_second_derivative_dirichlet_neumann(n, 10.0)
    assert np.array_equal(got, expected_dirichlet_neumann(n, 10.0))


def test_minimum_sizes_enforced():
    with pytest.raises(ValueError):
        fd_second_derivative_dirichlet(5, 1.0)
    with pytest.raises(ValueError):
        fd_second_derivative_dirichlet_neumann(6, 1.0)


def test_dirichlet_row_sums_except_boundary_rows():
    # centered interior rows annihilate constants
    d2 = fd_second_derivative_dirichlet(12, 3.0)
    sums = d2.sum(axis=1)
    assert np.allclose(sums[2:-2], 0.0, atol=1e-10)


def dirichlet_apply_error(n, length):
    d2 = fd_second_derivative_dirichlet(n, length)
    x = fd_nodes("dirichlet", n, length)
    f = np.sin(np.pi * x / length)
    want = -((np.pi / length) ** 2) * f
    return np.max(np.abs(d2 @ f - want))


def dirichlet_neumann_apply_error(n, length):
    d2 = fd_second_derivative_dirichlet_neumann(n, length)
    x = fd_nodes("dirichlet_neumann", n, length)
    # vanishes at 0, derivative vanishes at the right endpoint
    f = np.sin(np.pi * x / (2.0 * length))
    want = -((np.pi / (2.0 * length)) ** 2) * f
    return np.max(np.abs(d2 @ f - want))


def test_dirichlet_fourth_order():
    ns = (64, 128, 256)
    errs = [dirichlet_apply_error(n, 100.0) for n in ns]
    hs = [100.0 / (n + 1) for n in ns]
    orders = [np.log(errs[i] / errs[i + 1]) / np.log(hs[i] / hs[i + 1])
              for i in range(2)]
    assert all(o >= 3.5 for o in orders), orders


def test_dirichlet_neumann_fourth_order():
    errs = [dirichlet_neumann_apply_error(n, 100.0) for n in (64, 128, 256)]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(o >= 3.5 for o in orders), orders


def test_fd_nodes():
    x = fd_nodes("dirichlet", 9, 10.0)
    assert np.allclose(x, np.arange(1, 10.0))
    x = fd_nodes("dirichlet_neumann", 10, 10.0)
    assert x[-1] == 10.0
    with pytest.raises(ValueError):
        fd_nodes("periodic", 8, 1.0)


def test_build_fd_operator_distributes_alpha2():
    op = build_fd_operator(PARAMS, (8, 8), (10.0, 10.0), "dirichlet")
    d2 = fd_second_derivative_dirichlet(8, 10.0)
    want = PARAMS.diffusion * d2 + (PARAMS.alpha2 / 2.0) * np.eye(8)
    assert np.allclose(op.matrices[0], want, rtol=0, atol=1e-15)
    # kron sum of the two factors carries alpha2 exactly once
    k = kron_sum_matrix(op.matrices)
    diag_shift = k - np.kron(np.eye(8), PARAMS.diffusion * d2) \
        - np.kron(PARAMS.diffusion * d2, np.eye(8))
    assert np.allclose(diag_shift, PARAMS.alpha2 * np.eye(64), atol=1e-13)


def test_kronecker_exp_matches_dense_expm():
    rng = np.random.default_rng(51)
    op = build_fd_operator(PARAMS, (7, 6), (5.0, 4.0), "dirichlet")
    tau = 0.05
    exps = op.prepare(tau, [Fraction(1), Fraction(1, 2)])
    u = random_complex(rng, (7, 6))
    k = kron_sum_matrix(op.matrices)
    for frac in (Fraction(1), Fraction(1, 2)):
        got = vec(op.exp_apply(exps[frac], u))
        want = expm_pade(k, float(frac) * tau) @ vec(u)
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


def test_exp_cache_semigroup():
    op = build_fd_operator(PARAMS, (8,), (5.0,), "dirichlet_neumann")
    tau = 0.2
    exps = op.prepare(tau, [Fraction(1), Fraction(1, 2)])
    rng = np.random.default_rng(52)
    u = random_complex(rng, (8,))
    half = exps[Fraction(1, 2)]
    half_twice = op.exp_apply(half, op.exp_apply(half, u))
    whole = op.exp_apply(exps[Fraction(1)], u)
    assert np.max(np.abs(half_twice - whole)) <= 1e-11 * np.max(np.abs(whole))


def test_prepare_rejects_a_bad_step():
    op = build_fd_operator(PARAMS, (8,), (5.0,), "dirichlet")
    with pytest.raises(ValueError):
        op.prepare(-0.1, [Fraction(1)])


def test_fourier_operator_exp_is_elementwise():
    g = FourierGrid((8, 6), ((0.0, 10.0), (0.0, 7.0)))
    op = build_periodic_operator(g, PARAMS)
    tau = 0.3
    exps = op.prepare(tau, [Fraction(1, 2)])
    rng = np.random.default_rng(53)
    u = random_complex(rng, (8, 6))
    got = op.exp_apply(exps[Fraction(1, 2)], u)
    want = np.exp(0.5 * tau * op.symbol) * u
    assert np.array_equal(got, want)


def test_fourier_apply_is_pointwise_symbol():
    g = FourierGrid((6,), ((0.0, 10.0),))
    op = build_periodic_operator(g, PARAMS)
    u = np.arange(6) + 0j
    assert np.array_equal(op.apply(u), op.symbol * u)


def test_block_operator_componentwise():
    g = FourierGrid((8, 4), ((0.0, 70.0), (0.0, 35.0)))
    p = CglParameters(alpha1=0.125, beta1=0.5, alpha2=-0.9, alpha0=-0.4,
                      alpha3=1.0, beta3=0.8, alpha4=-0.1, beta4=-0.6,
                      alpha5=0.5)
    bu = build_periodic_operator(g, p, advection_sign=+1)
    bv = build_periodic_operator(g, p, advection_sign=-1)
    block = BlockOperator([bu, bv])
    tau = 0.1
    one = Fraction(1)
    exps = block.prepare(tau, [one])
    bu2 = build_periodic_operator(g, p, advection_sign=+1)
    bv2 = build_periodic_operator(g, p, advection_sign=-1)
    rng = np.random.default_rng(54)
    u = random_complex(rng, (8, 4))
    v = random_complex(rng, (8, 4))
    gu, gv = block.exp_apply(exps[one], (u, v))
    assert np.array_equal(gu, bu2.exp_apply(bu2.prepare(tau, [one])[one], u))
    assert np.array_equal(gv, bv2.exp_apply(bv2.prepare(tau, [one])[one], v))
    au, av = block.apply((u, v))
    assert np.array_equal(au, bu2.apply(u))
    assert np.array_equal(av, bv2.apply(v))
    with pytest.raises(ValueError):
        block.apply((u,))


def test_block_operator_validation():
    g = FourierGrid((8,), ((0.0, 1.0),))
    op = build_periodic_operator(g, CglParameters(alpha1=1.0))
    k = KroneckerOperator([np.eye(8)])
    with pytest.raises(ValueError):
        BlockOperator([])
    with pytest.raises(ValueError):
        BlockOperator([op, k])


def test_build_fd_operator_validation():
    with pytest.raises(ValueError):
        build_fd_operator(PARAMS, (8, 8), (1.0,), "dirichlet")
    with pytest.raises(ValueError):
        build_fd_operator(PARAMS, (8,), (1.0,), "robin")


GRID8 = FourierGrid((8,), ((0.0, 1.0),))


@pytest.mark.parametrize("call,match", [
    (lambda: KroneckerOperator([]), "at least one direction"),
    (lambda: KroneckerOperator([np.eye(3), np.ones((3, 2))]), "square"),
    (lambda: FourierOperator(GRID8, np.ones(7)), "symbol shape"),
    (lambda: BlockOperator([KroneckerOperator([np.eye(3)]),
                            KroneckerOperator([np.eye(4)])]), "shape"),
    (lambda: KroneckerOperator([np.eye(3)]).prepare(0.1, [Fraction(0)]),
     "fractions must be positive"),
    (lambda: FourierOperator(GRID8, np.ones(8)).prepare(
        0.1, [Fraction(-1, 2)]), "fractions must be positive"),
], ids=["no-direction", "non-square", "symbol-shape", "block-shapes",
        "zero-fraction", "negative-fraction"])
def test_invalid_operator_input_is_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()
