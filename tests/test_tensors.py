"""Tensor kernels against index-loop and explicit-Kronecker references."""

import threading
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cglsolve import spectral, tensors
from cglsolve.tensors import kron_sum_apply, mu_mode_product, tucker_apply

from oracles import (
    kron_chain,
    kron_mode_matrix,
    kron_sum_matrix,
    mu_mode_ref,
    random_complex,
    unvec,
    vec,
)

# Mixed-extent shapes keep the non-hypercubic paths honest.
SHAPES = [
    (7,),
    (16,),
    (3, 5),
    (8, 6),
    (2, 9),
    (4, 4, 4),
    (3, 4, 5),
    (6, 2, 7),
    (2, 3, 2, 4),
    (3, 2, 2, 2),
]


def test_vec_is_first_index_fastest():
    u = np.arange(12.0).reshape(3, 4)
    v = vec(u)
    for i in range(3):
        for j in range(4):
            assert v[i + 3 * j] == u[i, j]


@pytest.mark.parametrize("shape", SHAPES)
def test_vec_unvec_roundtrip(shape):
    rng = np.random.default_rng(11)
    u = random_complex(rng, shape)
    assert np.array_equal(unvec(vec(u), shape), u)


@pytest.mark.parametrize("shape", SHAPES)
def test_mu_mode_matches_index_loops(shape):
    rng = np.random.default_rng(hash(shape) % 2**32)
    u = random_complex(rng, shape)
    for axis, n in enumerate(shape):
        m = random_complex(rng, (n, n))
        got = mu_mode_product(u, m, axis)
        want = mu_mode_ref(u, m, axis)
        assert got.shape == want.shape
        err = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert err <= 1e-13


@pytest.mark.parametrize("shape", SHAPES)
def test_mu_mode_matches_kron_factor(shape):
    rng = np.random.default_rng(hash(("kron", shape)) % 2**32)
    u = random_complex(rng, shape)
    for axis, n in enumerate(shape):
        m = random_complex(rng, (n, n))
        got = vec(mu_mode_product(u, m, axis))
        want = kron_mode_matrix(shape, m, axis) @ vec(u)
        err = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert err <= 1e-13


@pytest.mark.parametrize("shape", SHAPES)
def test_tucker_matches_kron_chain(shape):
    rng = np.random.default_rng(hash(("tucker", shape)) % 2**32)
    u = random_complex(rng, shape)
    mats = [random_complex(rng, (n, n)) for n in shape]
    got = vec(tucker_apply(u, mats))
    want = kron_chain(mats) @ vec(u)
    err = np.max(np.abs(got - want)) / np.max(np.abs(want))
    assert err <= 1e-13


@pytest.mark.parametrize("shape", SHAPES)
def test_kron_sum_apply_matches_assembled(shape):
    rng = np.random.default_rng(hash(("ksum", shape)) % 2**32)
    u = random_complex(rng, shape)
    mats = [random_complex(rng, (n, n)) for n in shape]
    got = vec(kron_sum_apply(u, mats))
    want = kron_sum_matrix(mats) @ vec(u)
    err = np.max(np.abs(got - want)) / np.max(np.abs(want))
    assert err <= 1e-13


def test_single_direction_is_plain_matmul():
    rng = np.random.default_rng(23)
    u = random_complex(rng, (9,))
    m = random_complex(rng, (9, 9))
    assert np.allclose(tucker_apply(u, [m]), m @ u, rtol=0, atol=1e-13)
    assert np.allclose(kron_sum_apply(u, [m]), m @ u, rtol=0, atol=1e-13)


def test_identity_factors_are_identity_map():
    rng = np.random.default_rng(24)
    u = random_complex(rng, (5, 6, 4))
    eyes = [np.eye(n) for n in u.shape]
    assert np.allclose(tucker_apply(u, eyes), u, rtol=0, atol=0)


def test_shape_mismatch_rejected():
    u = np.zeros((3, 4), dtype=complex)
    with pytest.raises(ValueError):
        mu_mode_product(u, np.zeros((5, 5)), 0)
    with pytest.raises(ValueError):
        tucker_apply(u, [np.eye(3)])  # wrong factor count
    with pytest.raises(ValueError):
        kron_sum_apply(u, [np.eye(3), np.eye(3)])


U34 = np.zeros((3, 4), dtype=complex)


@pytest.mark.parametrize("call,match", [
    (lambda: tucker_apply(np.array(1.0 + 0j), []), "at least one direction"),
    (lambda: tucker_apply(np.array(1.0 + 0j), [], out=np.zeros((), complex)),
     "at least one direction"),
    (lambda: kron_sum_apply(np.array(1.0 + 0j), []),
     "at least one direction"),
    (lambda: tucker_apply(U34, [np.eye(3), np.ones(4)]), "must be a matrix"),
    (lambda: tucker_apply(U34, [np.eye(3), np.eye(4)],
                          out=np.zeros((3, 8), complex)[:, ::2]),
     "contiguous"),
    (lambda: kron_sum_apply(U34, [np.eye(3)]), "need 2 factors"),
    (lambda: mu_mode_product(U34, np.ones((5, 4)), 1), "must be 4 x 4"),
    (lambda: tucker_apply(U34, [np.ones((3, 2)), np.eye(4)]),
     "must be 3 x 3"),
    (lambda: kron_sum_apply(U34, [np.eye(3), np.ones((2, 4))]),
     "must be 4 x 4"),
], ids=["tucker-0d", "tucker-0d-out", "kron-sum-0d", "non-matrix",
        "strided-out", "kron-sum-count", "mu-mode-taller", "tucker-wider",
        "kron-sum-wider"])
def test_invalid_tensor_input_is_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_mu_mode_cost_scales_with_tensor_size():
    # 2*16 gemm passes over a 16^3 tensor touch each entry twice; just pin
    # that the result stays exact on a bigger draw (N = 4096).
    rng = np.random.default_rng(25)
    shape = (16, 16, 16)
    u = random_complex(rng, shape)
    mats = [random_complex(rng, (16, 16)) for _ in shape]
    got = vec(kron_sum_apply(u, mats))
    want = kron_sum_matrix(mats) @ vec(u)
    assert np.max(np.abs(got - want)) / np.max(np.abs(want)) <= 1e-13


def _layouts(rng, shape):
    """The same kind of draw C-ordered, F-ordered and as a strided view."""
    big = random_complex(rng, tuple(2 * n + 1 for n in shape))
    return {
        "C": random_complex(rng, shape),
        "F": np.asfortranarray(random_complex(rng, shape)),
        "strided": big[tuple(slice(1, None, 2) for _ in shape)],
    }


@pytest.fixture(params=[None, 5], ids=["default-blocks", "5-entry-blocks"])
def tucker_blocks(request, monkeypatch):
    # small blocks split every last axis into several, the last one short
    if request.param is not None:
        monkeypatch.setattr(tensors, "_BLOCK", request.param)


@pytest.mark.parametrize("rows", [0, 1, -1], ids=["square", "taller",
                                                  "wider"])
@pytest.mark.parametrize("shape", SHAPES)
def test_mode_products_match_index_loops_for_every_layout(shape, rows,
                                                          tucker_blocks):
    rng = np.random.default_rng(hash(("layout", shape, rows)) % 2**32)
    mats = [random_complex(rng, (max(1, n + rows), n)) for n in shape]
    for name, u in _layouts(rng, shape).items():
        if rows:
            # a taller or wider factor is rejected whatever the layout
            for call in [partial(mu_mode_product, u, m, axis)
                         for axis, m in enumerate(mats)] + [
                    partial(tucker_apply, u, mats),
                    partial(kron_sum_apply, u, mats)]:
                with pytest.raises(ValueError, match="must be"):
                    call()
            continue
        before = u.copy()
        want = u
        for axis, m in enumerate(mats):
            single = mu_mode_product(u, m, axis)
            ref = mu_mode_ref(u, m, axis)
            assert single.shape == ref.shape
            assert (np.max(np.abs(single - ref))
                    <= 1e-13 * np.max(np.abs(ref))), (name, axis)
            want = mu_mode_ref(want, m, axis)
        got = tucker_apply(u, mats)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (
            name)
        assert np.array_equal(u, before)


@pytest.mark.parametrize("shape", SHAPES)
def test_f_ordered_input_gives_f_ordered_output(shape, tucker_blocks):
    rng = np.random.default_rng(hash(("order", shape)) % 2**32)
    u = np.asfortranarray(random_complex(rng, shape))
    mats = [random_complex(rng, (n, n)) for n in shape]
    assert tucker_apply(u, mats).flags.f_contiguous
    for axis, m in enumerate(mats):
        assert mu_mode_product(u, m, axis).flags.f_contiguous


def _banded(rng, n, band):
    """A random n x n factor, zero where |i - j| > band if given."""
    m = random_complex(rng, (n, n))
    if band is not None:
        i, j = np.indices(m.shape)
        m[np.abs(i - j) > band] = 0
    return m


@st.composite
def _extents(draw):
    """1-3 extents of 2-80 nodes with at most 1024 entries in all, so the
    assembled Kronecker oracle stays small while one direction can reach
    80."""
    ndim = draw(st.integers(1, 3))
    shape, budget = [], 1024
    for k in range(ndim):
        n = draw(st.integers(2, min(80, budget // 2 ** (ndim - k - 1))))
        shape.append(n)
        budget //= n
    return tuple(shape)


@settings(max_examples=40, deadline=None)
@given(shape=_extents(), data=st.data(),
       layout=st.sampled_from(["C", "F", "strided"]),
       out_order=st.sampled_from([None, "C", "F"]),
       block=st.sampled_from([5, tensors._BLOCK]),
       seed=st.integers(0, 2**32 - 1))
def test_mode_products_match_the_assembled_oracles(shape, data, layout,
                                                   out_order, block, seed):
    rng = np.random.default_rng(seed)
    mats = [_banded(rng, n, data.draw(st.one_of(st.none(),
                                                st.integers(0, n))))
            for n in shape]
    u = _layouts(rng, shape)[layout]
    before = u.copy()
    with mock.patch.object(tensors, "_BLOCK", block):
        for axis, m in enumerate(mats):
            got = mu_mode_product(u, m, axis)
            want = mu_mode_ref(u, m, axis)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        out = None
        if out_order is not None:
            out = np.empty(shape, complex, order=out_order)
        if out is not None and not out.flags.f_contiguous:
            # a C-ordered out of two or more directions is refused
            for f in (tucker_apply, kron_sum_apply):
                with pytest.raises(ValueError, match="F-contiguous"):
                    f(u, mats, out=out)
            out = None
        got = tucker_apply(u, mats, out=out)
        assert out is None or got is out
        assert got.flags.f_contiguous
        want = kron_chain(mats) @ vec(u)
        assert np.max(np.abs(vec(got) - want)) <= 1e-13 * np.max(np.abs(want))
        got = vec(kron_sum_apply(u, mats))
        want = kron_sum_matrix(mats) @ vec(u)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.array_equal(u, before)


@pytest.mark.parametrize("block", [5, None], ids=["5-entry", "default"])
def test_a_blocked_2d_leading_pass_in_place(block, monkeypatch):
    # F order, square factors: the first direction runs in place on out
    if block is not None:
        monkeypatch.setattr(tensors, "_BLOCK", block)
    rng = np.random.default_rng(26)
    u = np.asfortranarray(random_complex(rng, (72, 9)))
    mats = [_banded(rng, 72, 3), random_complex(rng, (9, 9))]
    assert tensors._row_blocks(mats[0]) is not None
    want = kron_chain(mats) @ vec(u)
    got = vec(tucker_apply(u, mats))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_a_dense_factor_is_one_gemm_and_a_banded_one_a_gemm_per_block():
    rng = np.random.default_rng(27)
    assert tensors._row_blocks(random_complex(rng, (80, 80))) is None
    assert tensors._row_blocks(_banded(rng, 32, 1)) is None
    blocks = tensors._row_blocks(_banded(rng, 80, 2))
    assert blocks == [(slice(0, 32), slice(0, 34)),
                      (slice(32, 64), slice(30, 66)),
                      (slice(64, 96), slice(62, 80))]


def test_kron_sum_apply_folds_its_terms_left_to_right():
    rng = np.random.default_rng(28)
    u = random_complex(rng, (5, 6, 7))
    mats = [random_complex(rng, (n, n)) for n in u.shape]
    t0, t1, t2 = (mu_mode_product(u, m, k) for k, m in enumerate(mats))
    assert kron_sum_apply(u, mats).tobytes() == ((t0 + t1) + t2).tobytes()


# F-ordered tensors of at least 2^15 entries, so the products split into
# slabs; odd extents leave a short last unit
SLAB_SHAPES = [(256, 160), (40, 30, 50), (33, 37, 41)]


def _whole_products(u, mats, plans):
    """The products as whole-tensor _mode_pass calls, one np.matmul per
    direction (per row block of a banded factor), with the BLAS held at
    one thread: each single-direction product, the Tucker chain (last
    direction first) and the Kronecker sum."""
    def whole(x, k):
        out = np.empty(u.shape, complex, order="F")
        with spectral._one_blas_thread():
            tensors._mode_pass(x, mats[k], k, out, plans[k])
        return out

    singles = [whole(u, k) for k in range(u.ndim)]
    chain = whole(u, u.ndim - 1)
    for k in range(u.ndim - 1):
        chain = whole(chain, k)
    total = singles[0]
    for term in singles[1:]:
        total = total + term
    return singles, chain, total


def _products(u, mats):
    return ([mu_mode_product(u, m, k) for k, m in enumerate(mats)],
            tucker_apply(u, mats), kron_sum_apply(u, mats))


def _bytes(products):
    singles, chain, total = products
    return [a.tobytes() for a in (*singles, chain, total)]


@pytest.mark.parametrize("band", [None, 3], ids=["dense", "banded"])
@pytest.mark.parametrize("shape", SLAB_SHAPES)
def test_slab_split_products_keep_the_whole_gemms_bits(shape, band,
                                                       monkeypatch):
    rng = np.random.default_rng(hash(("split", shape, band)) % 2**32)
    u = np.asfortranarray(random_complex(rng, shape))
    mats = [_banded(rng, n, band) for n in shape]
    plans = [tensors._row_blocks(m) for m in mats]
    assert any(p is not None for p in plans) == (band is not None)
    want = _whole_products(u, mats, plans)
    for threads in (1, 2, 5):
        monkeypatch.setattr(spectral, "_THREADS", threads)
        assert _bytes(_products(u, mats)) == _bytes(want), threads


def test_a_products_slabs_run_with_one_blas_thread(set_blas_threads,
                                                   monkeypatch):
    set_blas_threads(2)
    monkeypatch.setattr(spectral, "_THREADS", 2)
    seen = []
    mode_pass = tensors._mode_pass

    def recording(*args):
        seen.append((threading.current_thread().name, spectral._BLAS[0]()))
        mode_pass(*args)

    monkeypatch.setattr(tensors, "_mode_pass", recording)
    rng = np.random.default_rng(29)
    u = np.asfortranarray(random_complex(rng, (40, 30, 50)))
    mats = [_banded(rng, n, band) for n, band in zip(u.shape, (3, None, 3))]
    _products(u, mats)
    assert {count for _, count in seen} == {1}
    assert "cglsolve-slab" in {name for name, _ in seen}
    assert spectral._BLAS[0]() == 2


@pytest.mark.parametrize("shape", [(40, 30, 50), (64, 48, 40)])
def test_without_a_blas_control_the_products_keep_their_bits(shape,
                                                             monkeypatch):
    # each product then runs whole in the caller, the BLAS threading each
    # GEMM; extents of at most 64 keep every GEMM's sums in one block
    rng = np.random.default_rng(hash(("no-control", shape)) % 2**32)
    u = np.asfortranarray(random_complex(rng, shape))
    mats = [_banded(rng, n, band) for n, band in zip(shape, (None, 3, 3))]
    want = _products(u, mats)
    monkeypatch.setattr(spectral, "_BLAS", None)
    assert _bytes(_products(u, mats)) == _bytes(want)


def test_a_product_that_raises_gives_the_blas_count_back(set_blas_threads,
                                                         monkeypatch):
    set_blas_threads(2)
    monkeypatch.setattr(spectral, "_THREADS", 2)

    def failing(*args):
        raise MemoryError("no room for the GEMM")

    monkeypatch.setattr(tensors, "_mode_pass", failing)
    rng = np.random.default_rng(30)
    u = np.asfortranarray(random_complex(rng, (40, 30, 50)))
    mats = [random_complex(rng, (n, n)) for n in u.shape]
    for call in (partial(tucker_apply, u, mats),
                 partial(kron_sum_apply, u, mats),
                 partial(mu_mode_product, u, mats[1], 1)):
        with pytest.raises(MemoryError):
            call()
        assert spectral._BLAS[0]() == 2
