"""Matrix exponential against an independent Taylor-series reference."""

import warnings

import numpy as np
import pytest

from cglsolve.experiments import build_problem, make_preset
from cglsolve.linalg import ExponentialOverflowError, expm_pade

from oracles import expm_taylor_ref, random_complex


def rel_max(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def test_nilpotent_block_is_exact():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    f = expm_pade(a)
    assert np.allclose(f, [[1.0, 1.0], [0.0, 1.0]], rtol=0, atol=1e-15)


def test_zero_matrix_gives_identity():
    f = expm_pade(np.zeros((5, 5)))
    assert np.array_equal(f, np.eye(5))


def test_scale_parameter_matches_prescaled_argument():
    rng = np.random.default_rng(31)
    a = random_complex(rng, (8, 8))
    assert np.allclose(expm_pade(a, scale=0.37), expm_pade(0.37 * a),
                       rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("n,target", [
    (1, 0.005), (2, 0.01), (3, 0.2), (4, 0.6), (6, 1.5),
    (8, 2.0), (12, 3.0), (16, 4.0), (24, 6.0), (32, 8.0),
])
def test_expm_matches_taylor_reference(n, target):
    # Targets run from far below the degree-13 threshold (5.37) to well
    # past it, where the squaring branch takes over.
    rng = np.random.default_rng(1000 + n)
    for draw in range(3):
        a = random_complex(rng, (n, n))
        a *= target / np.linalg.norm(a, 1)
        got = expm_pade(a)
        want = expm_taylor_ref(a)
        assert rel_max(got, want) <= 1e-12


@pytest.mark.parametrize("scale", [1.0, -0.37])
@pytest.mark.parametrize("size", [1e-12, 1e-8, 1e-4, 1.5e-2, 0.25, 0.95,
                                  2.1, 5.37, 8.0])
def test_scalar_exponentials_match_numpy_to_a_few_ulps(size, scale):
    # |z s| from 1e-12 to one squaring past the degree-13 threshold
    # (5.37), on 24 directions in the complex plane
    z = size / abs(scale) * np.exp(2j * np.pi * np.arange(24) / 24)
    got = np.array([expm_pade([[w]], scale)[0, 0] for w in z])
    want = np.exp(z * scale)
    ulps = np.abs(got - want) / np.abs(want) / np.finfo(float).eps
    # up to |z s| = 1 that is 3 ulps at most; nearer the threshold the
    # denominator q(b) = p(-b) cancels for Re b > 0 (the numerator p(b)
    # for Re b < 0), which costs up to about 170 ulps
    assert ulps.max() <= (4.0 if size <= 1.0 else 256.0)


@pytest.mark.parametrize("n", [2, 5, 9, 17, 32])
def test_semigroup_property(n):
    rng = np.random.default_rng(2000 + n)
    a = random_complex(rng, (n, n))
    a *= 2.5 / np.linalg.norm(a, 1)
    whole = expm_pade(a, scale=1.0)
    half = expm_pade(a, scale=0.5)
    assert rel_max(half @ half, whole) <= 1e-11


def test_hermitian_negative_definite_decays():
    rng = np.random.default_rng(33)
    b = random_complex(rng, (10, 10))
    h = -(b @ b.conj().T) - np.eye(10)
    f = expm_pade(h, scale=2.0)
    # spectrum of h is <= -1, so the exponential must contract
    assert np.linalg.norm(f, 2) < 1.0


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        expm_pade(np.zeros((3, 4)))
    with pytest.raises(ValueError):
        expm_pade(np.array([[np.nan, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        expm_pade(np.zeros((2, 2)), scale=np.inf)


@pytest.mark.parametrize("a,scale", [(np.ones((2, 2)), 1e308),
                                     (np.full((3, 3), 1e200), 1e200),
                                     (np.ones((2, 2)), -1e308)])
def test_a_scaled_norm_that_overflows_is_a_value_error(a, scale):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="1-norm is not finite"):
            expm_pade(a, scale)



@pytest.mark.parametrize("a,scale,where", [
    (np.ones((2, 2)), 1e300, "8 of 996"), (np.eye(3), 800.0, "8 of 8")])
def test_an_exponential_that_overflows_stops_at_the_first_bad_square(
        a, scale, where):
    # exp(1e300 * ones) would take 996 squarings, and returned all-NaN; the
    # first square that is not finite ends them, without a matmul warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ExponentialOverflowError) as err:
            expm_pade(a, scale)
    assert isinstance(err.value, ValueError)
    assert str(err.value) == ("matrix exponential overflows at squaring "
                              + where)


def test_an_exponential_near_the_overflow_is_finite():
    got = expm_pade(np.eye(3), 700.0)
    assert rel_max(got, np.exp(700.0) * np.eye(3)) <= 1e-12


def test_a_paper_scale_exponential_keeps_its_bits_whatever_the_blas_count(
        set_blas_threads):
    # the 128-node Dirichlet-Neumann factor of the paper-scale preset: a
    # threaded np.linalg.solve once gave other bits at two threads
    config = make_preset("cubic-3d-dirichlet-neumann", paper_scale=True)
    matrix = build_problem(config).operators[0].matrices[0]
    assert matrix.shape == (128, 128)
    tau = config.t_final / config.steps
    runs = []
    for count in (1, 2):
        set_blas_threads(count)
        runs.append(expm_pade(matrix, tau).tobytes())
    assert runs[0] == runs[1]
