"""Property tests of the slab-threaded elementwise kernels.

``pointwise_apply``, ``eval_g`` and the step combination
``integrators._lincomb`` run as chunked kernels from 2^15 entries on, one
slab per usable CPU. On random shapes with d = 1..4 and sizes on both sides of that
floor, in C, F and strided layouts, and with
1, 2 or 5 slabs, they must give the bits of their whole-array expressions
(``eval_g``: the seed formula to roundoff, and the values its own
whole-array path gives below the floor), the same bits for every slab
count, and leave their inputs unchanged.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cglsolve import spectral
from cglsolve.flows import NonlinearSpec, all_finite, eval_g
from cglsolve.integrators import _lincomb
from cglsolve.params import CglParameters
from cglsolve.spectral import pointwise_apply

from oracles import random_complex

SLABS = (1, 2, 5)
LAYOUTS = ("C", "F", "strided")
PARAMS = {
    "cubic": CglParameters(alpha1=1.0, beta1=2.0, alpha2=1.0, alpha3=-1.0,
                           beta3=0.2),
    "cubic_quintic": CglParameters(alpha1=0.5, beta1=0.5, alpha2=-0.5,
                                   alpha3=2.52, beta3=1.0, alpha4=-1.0,
                                   beta4=-0.11),
    "coupled_cubic_quintic": CglParameters(
        alpha1=0.125, beta1=0.5, alpha2=-0.9, alpha0=-0.4, alpha3=1.0,
        beta3=0.8, alpha4=-0.1, beta4=-0.6, alpha5=0.5),
}
PROPERTY = settings(max_examples=30, deadline=None)


@st.composite
def shapes(draw):
    """d = 1..4 extents whose product lies near 2^15, on either side."""
    d = draw(st.integers(1, 4))
    size = draw(st.one_of(st.integers(2 ** 14, 2 ** 16),
                          st.sampled_from([2 ** 15 - 1, 2 ** 15])))
    head = [draw(st.integers(1, 12)) for _ in range(d - 1)]
    return tuple(head) + (max(1, size // math.prod(head)),)


def make(rng, shape, layout):
    """A random complex array of `shape` stored in `layout`."""
    if layout == "strided":
        return random_complex(rng, (2 * shape[0],) + shape[1:])[::2]
    u = random_complex(rng, shape)
    return np.asfortranarray(u) if layout == "F" else u


@contextmanager
def slabs(n):
    """n slabs for the kernels, all from the same 2^15-entry floor."""
    saved = spectral._THREADS
    spectral._THREADS = n
    try:
        yield
    finally:
        spectral._THREADS = saved


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype and np.array_equal(
        np.ascontiguousarray(a).view(np.uint8),
        np.ascontiguousarray(b).view(np.uint8)))


def over_slabs(fn):
    """fn() with every slab count; asserts they agree bit for bit."""
    results = []
    for n in SLABS:
        with slabs(n):
            results.append(fn())
    for got in results[1:]:
        assert all(same_bits(a, b) for a, b in zip(got, results[0]))
    return results[0]


@PROPERTY
@given(shape=shapes(), layouts=st.tuples(st.sampled_from(LAYOUTS),
                                         st.sampled_from(LAYOUTS)),
       real_factor=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_pointwise_apply_is_the_product(shape, layouts, real_factor, seed):
    rng = np.random.default_rng(seed)
    factor, u = (make(rng, shape, layout) for layout in layouts)
    if real_factor:
        factor = factor.real
    before = factor.copy(), u.copy()
    got = over_slabs(lambda: (pointwise_apply(factor, u),))[0]
    assert same_bits(got, factor * u)
    assert same_bits(factor, before[0]) and same_bits(u, before[1])


def fold(terms):
    """The whole-array expression of _lincomb: acc = c * x + acc."""
    acc = None
    for c, x in terms:
        term = x if c == 1 else c * x
        acc = term if acc is None else term + acc
    return acc


@PROPERTY
@given(shape=shapes(), components=st.integers(1, 2),
       layouts=st.lists(st.sampled_from(LAYOUTS), min_size=2, max_size=4),
       coefs=st.lists(st.sampled_from([1, 1.0, 0.5, -1.0 / 3.0, 4.0 / 3.0,
                                       0.0123]), min_size=4, max_size=4),
       in_place=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_lincomb_is_the_chained_expression(shape, components, layouts, coefs,
                                           in_place, seed):
    rng = np.random.default_rng(seed)
    xs = [tuple(make(rng, shape, layout) for _ in range(components))
          for layout in layouts]
    terms = list(zip(coefs, xs))
    want = tuple(fold([(c, x[i]) for c, x in terms])
                 for i in range(components))
    before = [tuple(u.copy() for u in x) for x in xs]
    got = over_slabs(lambda: _lincomb(*terms))
    assert all(same_bits(a, b) for a, b in zip(got, want))
    for x, saved in zip(xs, before):
        assert all(same_bits(a, b) for a, b in zip(x, saved))
    if in_place:
        first = tuple(u.copy() for u in xs[0])
        for n in SLABS:
            target = tuple(u.copy(order="K") for u in first)
            with slabs(n):
                got = _lincomb(*[(coefs[0], target)] + terms[1:], out=target)
            assert all(same_bits(a, b) for a, b in zip(got, want))


@PROPERTY
@given(shape=shapes(), kind=st.sampled_from(sorted(PARAMS)),
       layouts=st.tuples(st.sampled_from(LAYOUTS), st.sampled_from(LAYOUTS)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_eval_g_matches_the_seed_formula(shape, kind, layouts, seed):
    rng = np.random.default_rng(seed)
    spec = NonlinearSpec(kind, PARAMS[kind])
    fields = tuple(make(rng, shape, layout)
                   for layout in layouts[:spec.components])
    before = tuple(u.copy() for u in fields)
    got = over_slabs(lambda: eval_g(spec, fields))
    # below the floor the whole-array path gives the kernel's values
    heads = eval_g(spec, tuple(np.ravel(u)[:700] for u in fields))
    for head, g in zip(heads, got):
        assert np.array_equal(head, np.ravel(g)[:700])
    p = spec.params
    mods = [np.abs(u) ** 2 for u in fields]
    for i, (g, u) in enumerate(zip(got, fields)):
        # the seed formula and the sum of its terms' moduli. Both formulas
        # round relative to the terms, which cancel by up to 2.3x at the
        # largest entries of the coupled kind; against the same sum in long
        # double (600 draws of 40,000 entries) the kernel was at most
        # 4.0e-16 and the seed formula 9.8e-16 of the terms off
        want = p.cubic * mods[i] * u
        terms = abs(p.cubic) * mods[i]
        if kind != "cubic":
            want = want + p.quintic * (mods[i] * mods[i]) * u
            terms = terms + abs(p.quintic) * mods[i] ** 2
        if spec.components == 2:
            want = want + p.alpha5 * mods[1 - i] * u
            terms = terms + abs(p.alpha5) * mods[1 - i]
        assert g.shape == u.shape
        assert (np.max(np.abs(g - want))
                <= 2e-15 * np.max(terms * np.abs(u)))
    assert all(same_bits(a, b) for a, b in zip(fields, before))


@PROPERTY
@given(shape=shapes(), layout=st.sampled_from(LAYOUTS),
       bad=st.sampled_from([None, np.nan, np.inf, -np.inf]),
       imaginary=st.booleans(), where=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_all_finite_finds_any_bad_entry(shape, layout, bad, imaginary, where,
                                        seed):
    u = make(np.random.default_rng(seed), shape, layout)
    if bad is not None:
        index = np.unravel_index(min(int(where * u.size), u.size - 1),
                                 u.shape)
        if imaginary:
            u.imag[index] = bad
        else:
            u.real[index] = bad
    assert all_finite((u,)) is (bad is None)


def test_lincomb_never_writes_its_other_terms():
    rng = np.random.default_rng(5)
    a = random_complex(rng, (64, 64, 16))
    b = random_complex(rng, (64, 64, 16))
    saved = b.copy()
    want = fold([(0.5, a), (2.0, b)])
    with slabs(2):
        (got,) = _lincomb((0.5, (a,)), (2.0, (b,)), out=(a,))
    assert got is a
    assert same_bits(got, want) and same_bits(b, saved)


@pytest.mark.parametrize("n", [2, 5])
def test_kernels_use_the_callers_errstate(n):
    u = np.full((64, 64, 16), 0.5 + 0.0j)
    u[-1, -1, -1] = 1e200  # overflows in the last slab's thread
    spec = NonlinearSpec("cubic", PARAMS["cubic"])
    with slabs(n), np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            eval_g(spec, (u,))
        with pytest.raises(FloatingPointError):
            _lincomb((1e200, (u,)), (1, (u,)))
