"""The ``out=`` contract of the layers the steppers write into.

For every layer f, ``f(x, out=buf)`` returns ``buf`` and ``buf`` then
holds the bytes of ``f(x)``. Where the layer allows it, ``buf`` may be
``x`` itself: the transforms, ``eval_g``, the symbol products and the
exact flows. ``tucker_apply`` (and so the Kronecker exponential) writes
into a different array and rejects an ``out`` that shares memory with its
input. Shapes lie on both sides of the 2^15-entry floor of the threaded
kernels, in C and F order; ``out`` takes the layout of ``f(x)``. Wrong
shapes of ``out`` are rejected with a ValueError.
"""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cglsolve.flows import NonlinearSpec, cubic_flow, eval_g, quintic_flow
from cglsolve.operators import (BlockOperator, FourierOperator,
                                KroneckerOperator)
from cglsolve.params import CglParameters
from cglsolve.spectral import (FourierGrid, dft_forward, dft_inverse,
                               pointwise_apply)
from cglsolve.tensors import tucker_apply

from oracles import random_complex

# decaying cubic and quintic terms: the exact flows never blow up
CQ = CglParameters(alpha1=0.5, beta1=0.5, alpha2=-0.5, alpha3=-1.5,
                   beta3=1.0, alpha4=-1.0, beta4=-0.11)
COUPLED = replace(CQ, alpha5=0.5)
ROTATION = CglParameters(alpha1=0.5, beta3=1.0, beta4=-0.5)
HALF = Fraction(1, 2)


def kronecker(rng, shape):
    return KroneckerOperator([random_complex(rng, (n, n)) / n
                              for n in shape])


def fourier(rng, shape):
    grid = FourierGrid(shape, ((0.0, 1.0),) * len(shape))
    return FourierOperator(grid, random_complex(rng, shape))


def exp_apply(op):
    """op's exp_apply with its prepared exp(tau/2 K), tau = 0.1."""
    e = op.prepare(0.1, [HALF])[HALF]
    return lambda x, out=None: op.exp_apply(e, x, out=out)


def layer(name, rng, shape):
    """(f(x, out=None), components or None for one array, in place ok)."""
    if name == "dft_forward":
        return dft_forward, None, True
    if name == "dft_inverse":
        return dft_inverse, None, True
    if name == "pointwise_apply":
        factor = random_complex(rng, shape)
        return (lambda x, out=None: pointwise_apply(factor, x, out=out),
                None, True)
    if name in ("cubic_flow", "quintic_flow", "rotation_flow"):
        flow = quintic_flow if name == "quintic_flow" else cubic_flow
        params = ROTATION if name == "rotation_flow" else CQ
        return (lambda x, out=None: flow(x, 0.3, params, out=out), None,
                True)
    if name in ("eval_g", "eval_g_coupled"):
        spec = (NonlinearSpec("coupled_cubic_quintic", COUPLED)
                if name == "eval_g_coupled"
                else NonlinearSpec("cubic_quintic", CQ))
        return (lambda x, out=None: eval_g(spec, x, out=out),
                spec.components, True)
    if name == "tucker_apply":
        mats = [random_complex(rng, (n, n)) / n for n in shape]
        return (lambda x, out=None: tucker_apply(x, mats, out=out), None,
                False)
    if name == "kronecker_exp_apply":
        return exp_apply(kronecker(rng, shape)), None, False
    if name == "fourier_exp_apply":
        return exp_apply(fourier(rng, shape)), None, True
    op = BlockOperator([fourier(rng, shape), fourier(rng, shape)])
    return exp_apply(op), 2, True


LAYERS = ("dft_forward", "dft_inverse", "pointwise_apply", "cubic_flow",
          "quintic_flow", "rotation_flow", "eval_g", "eval_g_coupled",
          "tucker_apply", "kronecker_exp_apply", "fourier_exp_apply",
          "block_exp_apply")


@st.composite
def shapes(draw):
    """d = 1..3 extents; from d = 2 on, products below 2^9 or above 2^15.

    Extents stay small, because a Kronecker factor is dense n x n.
    """
    d = draw(st.integers(1, 3))
    big = d > 1 and draw(st.booleans())
    lo, hi = {1: (2, 200), 2: (182, 200), 3: (32, 36)}[d] if big or d == 1 \
        else (2, 20)
    return tuple(draw(st.integers(lo, hi)) for _ in range(d))


def arrays(rng, shape, order, components):
    def one():
        u = random_complex(rng, shape)
        return np.asfortranarray(u) if order == "F" else u
    return one() if components is None else tuple(
        one() for _ in range(components))


def as_tuple(x):
    return x if isinstance(x, tuple) else (x,)


def same_bytes(a, b):
    return all(u.shape == v.shape and u.dtype == v.dtype
               and np.ascontiguousarray(u).tobytes()
               == np.ascontiguousarray(v).tobytes()
               for u, v in zip(as_tuple(a), as_tuple(b)))


def like(x):
    if isinstance(x, tuple):
        return tuple(np.empty_like(u) for u in x)
    return np.empty_like(x)


def copied(x):
    if isinstance(x, tuple):
        return tuple(u.copy(order="K") for u in x)
    return x.copy(order="K")


@settings(max_examples=8, deadline=None)
@given(shape=shapes(), order=st.sampled_from(["C", "F"]),
       seed=st.integers(0, 2 ** 32 - 1))
@pytest.mark.parametrize("name", LAYERS)
def test_out_holds_the_bytes_of_a_new_result(name, shape, order, seed):
    rng = np.random.default_rng(seed)
    f, components, in_place = layer(name, rng, shape)
    x = arrays(rng, shape, order, components)
    before = copied(x)
    want = f(x)
    buf = like(want)
    assert f(x, out=buf) is buf
    assert same_bytes(buf, want)
    assert same_bytes(x, before)
    if in_place:
        buf = copied(x)
        assert f(buf, out=buf) is buf
        assert same_bytes(buf, want)


@pytest.mark.parametrize("name", LAYERS)
def test_out_of_the_wrong_shape_is_rejected(name):
    rng = np.random.default_rng(81)
    f, components, _ = layer(name, rng, (6, 5))
    x = arrays(rng, (6, 5), "C", components)
    wrong = arrays(rng, (5, 6), "C", components)
    with pytest.raises(ValueError, match="out"):
        f(x, out=wrong)


@pytest.mark.parametrize("name", ["tucker_apply", "kronecker_exp_apply"])
def test_tucker_out_sharing_its_input_is_rejected(name):
    rng = np.random.default_rng(82)
    f, _, _ = layer(name, rng, (6, 6))
    x = random_complex(rng, (6, 6))
    before = x.copy()
    for out in (x, x.T):
        with pytest.raises(ValueError, match="share memory"):
            f(x, out=out)
    assert np.array_equal(x, before)
