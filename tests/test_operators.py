"""FD matrices (bit-exact rows, convergence order) and operator classes."""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from cglsolve import operators, tensors
from cglsolve.experiments import build_problem, make_preset
from cglsolve.flows import NonlinearSpec
from cglsolve.integrators import SCHEMES, Problem, integrate
from cglsolve.linalg import expm_pade
from cglsolve.operators import (
    FourierOperator,
    KroneckerOperator,
    build_fd_operator,
    build_periodic_operator,
    fd_nodes,
    fd_second_derivative,
)
from cglsolve.params import CglParameters
from cglsolve.spectral import FourierGrid, symbol_exponential

from oracles import (dense_symbol, kron_sum_matrix, outer_table,
                     random_complex, vec)

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
    got = fd_second_derivative("dirichlet", n, 10.0)
    assert np.array_equal(got, expected_dirichlet(n, 10.0))


@pytest.mark.parametrize("n", [7, 8, 11, 40])
def test_dirichlet_neumann_rows_bit_exact(n):
    got = fd_second_derivative("dirichlet_neumann", n, 10.0)
    assert np.array_equal(got, expected_dirichlet_neumann(n, 10.0))


def test_minimum_sizes_enforced():
    with pytest.raises(ValueError):
        fd_second_derivative("dirichlet", 5, 1.0)
    with pytest.raises(ValueError):
        fd_second_derivative("dirichlet_neumann", 6, 1.0)


def test_dirichlet_row_sums_except_boundary_rows():
    # centered interior rows annihilate constants
    d2 = fd_second_derivative("dirichlet", 12, 3.0)
    sums = d2.sum(axis=1)
    assert np.allclose(sums[2:-2], 0.0, atol=1e-10)


def dirichlet_apply_error(n, length):
    d2 = fd_second_derivative("dirichlet", n, length)
    x = fd_nodes("dirichlet", n, length)
    f = np.sin(np.pi * x / length)
    want = -((np.pi / length) ** 2) * f
    return np.max(np.abs(d2 @ f - want))


def dirichlet_neumann_apply_error(n, length):
    d2 = fd_second_derivative("dirichlet_neumann", n, length)
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


@pytest.mark.parametrize("length", [0.0, -100.0, np.inf, np.nan])
@pytest.mark.parametrize("kind", ["dirichlet", "dirichlet_neumann"])
def test_fd_grids_need_a_positive_finite_length(kind, length):
    for build in (fd_second_derivative, fd_nodes):
        with pytest.raises(ValueError, match=f"positive and finite, got "
                                             f"{length}"):
            build(kind, 8, length)


def test_build_fd_operator_distributes_alpha2():
    op = build_fd_operator(PARAMS, (8, 8), (10.0, 10.0), "dirichlet")
    d2 = fd_second_derivative("dirichlet", 8, 10.0)
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


@pytest.fixture
def expm_calls(monkeypatch):
    """The (matrix, step) of every expm_pade call prepare makes."""
    calls = []

    def counted(m, step):
        calls.append((m, step))
        return expm_pade(m, step)

    monkeypatch.setattr(operators, "expm_pade", counted)
    return calls


UNIT_ROUNDOFF = 2.0**-53


def _paper_fd3d_exponentials():
    config = make_preset("cubic-3d-dirichlet-neumann", paper_scale=True)
    (op,) = build_problem(config).operators
    tau = config.t_final / config.steps
    return op, tau, op.prepare(tau, SCHEMES["split4"].fractions)


def test_prepare_shares_the_exponential_of_a_cube(expm_calls):
    op, tau, exps = _paper_fd3d_exponentials()
    # split4 has two fractions; the three directions of the cube are equal
    assert len(expm_calls) == 2
    for f, per_direction in exps.items():
        got = per_direction[0]
        assert all(e is got for e in per_direction)
        want = expm_pade(op.matrices[0], float(f) * tau)
        rows, cols = np.indices(want.shape)
        dist = np.abs(rows - cols)
        band = dist[got != 0].max()
        inside = dist <= band
        # expm_pade's bits inside the band, zeros outside it
        assert np.array_equal(got[inside], want[inside])
        assert not got[~inside].any()
        mod = np.abs(want)
        bound = UNIT_ROUNDOFF * mod.sum(axis=1)
        assert np.all(np.where(inside, 0.0, mod).sum(axis=1) <= bound)
        # and it is the narrowest such band
        assert np.any(np.where(dist < band, 0.0, mod).sum(axis=1) > bound)


def test_the_row_blocks_of_the_fd3d_exponentials_cover_half_of_each():
    _, _, exps = _paper_fd3d_exponentials()
    for f, (e, _, _) in exps.items():
        blocks = tensors._row_blocks(e)
        kept = np.zeros_like(e)
        for rows, cols in blocks:
            kept[rows, cols] = e[rows, cols]
        # every nonzero entry is multiplied, in at most half the matrix
        assert np.array_equal(kept, e)
        cover = sum(kept[rows, cols].size for rows, cols in blocks)
        assert cover <= e.size / 2, f
    dense = random_complex(np.random.default_rng(54), (128, 128))
    assert tensors._row_blocks(dense) is None


@pytest.mark.parametrize("scheme", ["split4", "rk4"])
def test_a_run_plans_each_distinct_factor_once(scheme, monkeypatch):
    # directions 0 and 2 share a matrix; both extents exceed one row block
    op = build_fd_operator(PARAMS, (40, 48, 40), (5.0, 6.0, 5.0), "dirichlet")
    problem = Problem(op, NonlinearSpec("cubic", PARAMS))
    row_blocks = tensors._row_blocks
    scanned = []

    def counted(mat):
        scanned.append(mat)
        return row_blocks(mat)

    monkeypatch.setattr(tensors, "_row_blocks", counted)
    u0 = 0.1 * random_complex(np.random.default_rng(57), op.shape)
    res = integrate(problem, scheme, (u0,), 5e-4, 5)
    assert not res.diverged
    # split4: 2 distinct matrices x 2 fractions; rk4: the 2 D2 matrices
    assert len(scanned) == (4 if scheme == "split4" else 2)
    assert len({m.tobytes() for m in scanned}) == len(scanned)
    for e in op.prepare(1e-4, SCHEMES[scheme].fractions).values():
        assert e.plans == [row_blocks(m) for m in e]


def test_prepare_makes_one_exponential_per_distinct_matrix(expm_calls):
    # directions 0, 1 and 3 share an extent, 0, 1 and 2 a length
    op = build_fd_operator(PARAMS, (8, 8, 9, 8), (5.0, 5.0, 5.0, 4.0),
                           "dirichlet")
    tau, fractions = 0.05, [Fraction(1), Fraction(1, 2)]
    exps = op.prepare(tau, fractions)
    assert len(expm_calls) == 3 * len(fractions)
    for f in fractions:
        per_direction = exps[f]
        assert per_direction[0] is per_direction[1]
        for m, e in zip(op.matrices, per_direction):
            assert np.array_equal(e, expm_pade(m, float(f) * tau))


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
    e0, e1 = (symbol_exponential(s, 0.5 * tau) for s in op.symbols)
    want = (e0[:, None] * e1[None, :]) * u
    assert np.array_equal(got, want)


def test_fourier_exponential_is_close_to_the_full_symbols():
    g = FourierGrid((16, 12, 10), ((0.0, 10.0), (-3.0, 4.0), (0.0, 7.0)))
    for sign in (-1, 0, 1):
        op = build_periodic_operator(g, replace(PARAMS, alpha0=0.7), sign)
        for f, e in op.prepare(0.3, [Fraction(1, 2), Fraction(1)]).items():
            want = np.exp(float(f) * 0.3 * op.symbol)
            assert e.shape == g.shape and e.flags.c_contiguous
            assert np.allclose(e, want, rtol=1e-14, atol=0)


def test_one_dimensional_fourier_exponential_keeps_its_bits():
    # a 1-D symbol is its own Kronecker sum: the exponential is
    # np.exp of the full symbol, bit for bit
    g = FourierGrid((700,), ((0.0, 70.0),))
    p = replace(PARAMS, alpha0=0.7)
    for sign in (-1, 0, 1):
        full = dense_symbol([g.wavenumbers(0)], p.diffusion, p.alpha2,
                            sign * p.alpha0)
        op = build_periodic_operator(g, p, sign)
        assert np.array_equal(op.symbol, full)
        e = op.prepare(0.0025, [Fraction(1, 2)])[Fraction(1, 2)]
        assert np.array_equal(e, np.exp(0.5 * 0.0025 * full))


# 1-D, 2-D (a mixed-radix 70 x 35 among them) and 3-D grids, each on both
# sides of spectral._SERIAL_BELOW entries
@pytest.mark.parametrize("extents", [
    (700,), (1 << 16,), (70, 35), (256, 256), (12, 10, 8), (32, 32, 32),
    (40, 30, 50)], ids=str)
def test_fourier_tables_are_the_whole_outer_products(extents):
    # the symbol and the exponentials are filled on the slab pool with
    # the bits of reduce(ufunc.outer, ...) on the 1-D factors
    g = FourierGrid(extents, tuple((0.0, 7.0 + mu) for mu in
                                   range(len(extents))))
    op = build_periodic_operator(g, replace(PARAMS, alpha0=0.7), 1)
    assert np.array_equal(op.symbol, outer_table(np.add, op.symbols))
    tau = 0.01
    for f, e in op.prepare(tau, [Fraction(1, 2), Fraction(1)]).items():
        want = outer_table(np.multiply, [symbol_exponential(
            s, float(f) * tau) for s in op.symbols])
        assert e.flags.c_contiguous and np.array_equal(e, want)


def test_fourier_apply_is_pointwise_symbol():
    g = FourierGrid((6,), ((0.0, 10.0),))
    op = build_periodic_operator(g, PARAMS)
    u = np.arange(6) + 0j
    assert np.array_equal(op.apply(u), op.symbol * u)


LINEAR_COUPLED = CglParameters(alpha1=0.125, beta1=0.5, alpha2=-0.9,
                               alpha0=-0.4)


def test_block_operator_componentwise():
    # a two-operator problem steps each component by its own operator,
    # through its exponentials (if4) or its K u (rk4): the bits of each
    # operator's one-component problem, whose operator carries the
    # advection and whose scalar kind may not; a wrong component count is
    # refused
    g = FourierGrid((8, 4), ((0.0, 70.0), (0.0, 35.0)))
    ops = [build_periodic_operator(g, LINEAR_COUPLED, advection_sign=s)
           for s in (+1, -1)]
    problem = Problem(ops, NonlinearSpec("coupled_cubic_quintic",
                                         LINEAR_COUPLED))
    rng = np.random.default_rng(54)
    u = random_complex(rng, (8, 4))
    v = random_complex(rng, (8, 4))
    for scheme in ("if4", "rk4"):
        got = integrate(problem, scheme, (u, v), 0.1, 2).fields
        for s, x, y in zip((+1, -1), (u, v), got):
            alone = Problem(build_periodic_operator(g, LINEAR_COUPLED, s),
                            NonlinearSpec("cubic_quintic",
                                          replace(LINEAR_COUPLED, alpha0=0.0)))
            want = integrate(alone, scheme, (x,), 0.1, 2).fields[0]
            assert np.array_equal(y, want), scheme
    with pytest.raises(ValueError, match="2 array"):
        integrate(problem, "if4", (u,), 0.1, 2)


def test_block_operator_validation():
    # a problem needs one operator per component, of one representation
    g = FourierGrid((8,), ((0.0, 1.0),))
    op = build_periodic_operator(g, CglParameters(alpha1=1.0))
    k = KroneckerOperator([np.eye(8)])
    coupled = NonlinearSpec("coupled_cubic_quintic", CglParameters(alpha1=1.0))
    with pytest.raises(ValueError, match="one operator per component"):
        Problem([], coupled)
    with pytest.raises(ValueError, match="one operator per component"):
        Problem(op, coupled)
    with pytest.raises(ValueError, match="representation"):
        Problem([op, k], coupled)


def test_build_fd_operator_validation():
    with pytest.raises(ValueError):
        build_fd_operator(PARAMS, (8, 8), (1.0,), "dirichlet")
    with pytest.raises(ValueError):
        build_fd_operator(PARAMS, (8,), (1.0,), "robin")


GRID8 = FourierGrid((8,), ((0.0, 1.0),))


@pytest.mark.parametrize("call,match", [
    (lambda: KroneckerOperator([]), "at least one direction"),
    (lambda: KroneckerOperator([np.eye(3), np.ones((3, 2))]), "square"),
    (lambda: FourierOperator(GRID8, [np.ones(7)]), "symbol shape"),
    (lambda: FourierOperator(FourierGrid((4, 4), ((0.0, 1.0),) * 2),
                             [np.ones((4, 4))]), "symbol shape"),
    (lambda: Problem([KroneckerOperator([np.eye(3)]),
                      KroneckerOperator([np.eye(4)])],
                     NonlinearSpec("coupled_cubic_quintic", PARAMS)), "shape"),
    (lambda: KroneckerOperator([np.eye(3)]).prepare(0.1, [Fraction(0)]),
     "fractions must be positive"),
    (lambda: FourierOperator(GRID8, [np.ones(8)]).prepare(
        0.1, [Fraction(-1, 2)]), "fractions must be positive"),
], ids=["no-direction", "non-square", "symbol-shape", "full-symbol",
        "block-shapes",
        "zero-fraction", "negative-fraction"])
def test_invalid_operator_input_is_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()
