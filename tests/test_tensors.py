"""Tensor kernels against index-loop and explicit-Kronecker references."""

import numpy as np
import pytest

from cglsolve import tensors
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
        m = random_complex(rng, (n + 1, n))
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
], ids=["tucker-0d", "tucker-0d-out", "kron-sum-0d", "non-matrix",
        "strided-out", "kron-sum-count"])
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
