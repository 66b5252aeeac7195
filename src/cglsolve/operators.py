"""Linear operators of the CGL problems behind one interface.

``KroneckerOperator`` (finite differences) is a Kronecker sum of one
dense matrix per direction, ``FourierOperator`` (periodic) one of 1-D
diagonal symbols on coefficient space. Each has ``representation``
("grid" or "fourier"), ``shape``, ``apply(u, *, out=None)``,
``prepare(tau, fractions)`` and ``exp_apply(exponential, u, *,
out=None)``; ``out`` may be u only for a Fourier operator, and is
F-ordered, like the results, for a Kronecker one. They hold nothing but
their definition: ``prepare`` returns ``{fraction: exponential}``, a
Kronecker one as ``tensors.Factors`` with their block plans, for exact
positive step fractions and a positive, finite tau (else ValueError).
A coupled problem has one operator per component. The fourth-order D2
matrices have one-sided closures: ``_FD_BOUNDARIES`` holds each
boundary kind's spacing, fewest nodes and last two rows.
"""

from fractions import Fraction
from functools import cached_property, reduce

import numpy as np

from . import spectral
from .linalg import expm_pade
from .spectral import direction_symbols, pointwise_apply, symbol_exponential
from .tensors import Factors, kron_sum_apply, tucker_apply

__all__ = [
    "fd_second_derivative",
    "fd_nodes",
    "KroneckerOperator",
    "FourierOperator",
    "build_fd_operator",
    "build_periodic_operator",
]

# numerator rows of the one-sided closures, denominators are all 12 h^2
_LEFT_EDGE = (-15.0, -4.0, 14.0, -6.0, 1.0)
_NEXT_TO_LEFT = (16.0, -30.0, 16.0, -1.0)
_CENTERED = (-1.0, 16.0, -30.0, 16.0, -1.0)

# boundary kind -> (h = length / (n + extra), fewest nodes n, the last two
# D2 numerator rows, each ending in the last column). Dirichlet values at
# both ends are eliminated, so all n nodes are interior; with u'(length)
# = 0 the endpoint x_n = length carries an unknown and the last two rows
# absorb the derivative condition (the final row mixes in thirds).
_FD_BOUNDARIES = {
    "dirichlet": (1, 6, (_NEXT_TO_LEFT[::-1], _LEFT_EDGE[::-1])),
    "dirichlet_neumann": (0, 7, ((1.0, -6.0, 14.0, -4.0, -15.0, 10.0),
                                 (1.0, -8.0 / 3.0, -6.0, 56.0, -145.0 / 3.0))),
}


def _boundary(kind, length):
    """The kind's ``_FD_BOUNDARIES`` entry; ValueError for an unknown kind
    or an interval length that is not positive and finite."""
    if kind not in _FD_BOUNDARIES:
        raise ValueError(f"unknown boundary kind {kind!r}")
    if not 0 < length < np.inf:
        raise ValueError(f"interval length must be positive and finite, "
                         f"got {length}")
    return _FD_BOUNDARIES[kind]


def fd_second_derivative(kind, n, length):
    """Fourth-order D2 on the n nodes of ``fd_nodes(kind, n, length)``;
    ValueError for too few nodes or a length not positive and finite."""
    extra, fewest, (penultimate, last) = _boundary(kind, length)
    if n < fewest:
        raise ValueError(f"{kind} D2 needs at least {fewest} nodes")
    h = length / (n + extra)
    num = np.zeros((n, n))
    num[0, :5] = _LEFT_EDGE
    num[1, :4] = _NEXT_TO_LEFT
    for i in range(2, n - 2):
        num[i, i - 2:i + 3] = _CENTERED
    num[n - 2, n - len(penultimate):] = penultimate
    num[n - 1, n - len(last):] = last
    return num / (12.0 * h * h)


def fd_nodes(kind, n, length):
    """Grid nodes matching the FD matrices (1-based interior numbering)."""
    return np.arange(1, n + 1) * (length / (n + _boundary(kind, length)[0]))


def _exponentials(tau, fractions, build):
    """{f: build(f * tau)} for every step fraction f."""
    if not np.isfinite(tau) or tau <= 0:
        raise ValueError("tau must be positive and finite")
    found = {}
    for f in map(Fraction, fractions):
        if f <= 0:
            raise ValueError("step fractions must be positive")
        found[f] = build(float(f) * float(tau))
    return found


def _numerical_band(e):
    """e with zeros outside its numerical band, the narrowest |i - j| <= b
    such that in every row the moduli outside it sum to at most 2^-53 of
    the row's modulus sum; e itself if that band is the whole matrix."""
    n = e.shape[0]
    mod = np.abs(e)
    rows, cols = np.indices(e.shape)
    dist = np.abs(rows - cols)
    # mass[i, d]: the moduli of row i at distance d from the diagonal
    mass = np.bincount((rows * n + dist).ravel(), mod.ravel(), n * n)
    # outside[i, b]: row i's mass beyond distance b, smallest terms first
    outside = np.cumsum(mass.reshape(n, n)[:, :0:-1], axis=1)[:, ::-1]
    fits = np.all(outside <= 2.0**-53 * mod.sum(axis=1, keepdims=True),
                  axis=0)
    if not fits.any():
        return e
    return np.where(dist <= np.argmax(fits), e, 0)


class KroneckerOperator:
    """Kronecker sum of per-direction matrices."""

    representation = "grid"

    def __init__(self, matrices):
        self.matrices = [np.asarray(m, dtype=complex) for m in matrices]
        if not self.matrices:
            raise ValueError("need at least one direction")
        for m in self.matrices:
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError("per-direction factors must be square")
        self.shape = tuple(m.shape[0] for m in self.matrices)

    @cached_property
    def _factors(self):
        """The matrices as ``Factors``, planned on first use (by ``apply``)."""
        return Factors(self.matrices)

    def apply(self, u, *, out=None):
        return kron_sum_apply(u, self._factors, out=out)

    def prepare(self, tau, fractions):
        """{f: [exp(f tau A_mu) for each direction mu]}, each cut to its
        numerical band (``_numerical_band``), as ``Factors``: directions
        whose matrices are equal bit for bit (all three of a cube) share
        one array and plan, one ``expm_pade`` and one plan per distinct
        matrix and fraction."""
        return _exponentials(tau, fractions, lambda step: Factors(
            self.matrices, lambda m: _numerical_band(expm_pade(m, step))))

    def exp_apply(self, exponential, u, *, out=None):
        """A prepared exponential times u, into ``out`` if given (never u
        itself): a Tucker product with the exponential's plans."""
        return tucker_apply(u, exponential, out=out)


def _outer(ufunc, vectors):
    """reduce(ufunc.outer, vectors), bit for bit, as a C-ordered array:
    the leading axes' table is made whole and ufunc(table[rows, ..., None],
    last) fills the result on the slab pool; one vector is returned as
    it is."""
    if len(vectors) == 1:
        return vectors[0]
    table, last = reduce(ufunc.outer, vectors[:-1]), vectors[-1]
    out = np.empty(table.shape + last.shape, np.result_type(table, last))

    def fill(lo, hi):
        ufunc(table[lo:hi, ..., None], last, out=out[lo:hi])

    spectral.run_slabs(fill, len(table), out.size)
    return out


class FourierOperator:
    """Kronecker sum of per-direction diagonal symbols on Fourier
    coefficient space."""

    representation = "fourier"

    def __init__(self, grid, symbols):
        self.symbols = [np.asarray(s) for s in symbols]
        if [s.shape for s in self.symbols] != [(n,) for n in grid.shape]:
            raise ValueError("symbol shape must match the grid")
        self.shape = grid.shape

    @cached_property
    def symbol(self):
        """The full symbol tensor, built on first use (by ``apply``)."""
        return _outer(np.add, self.symbols)

    def apply(self, u, *, out=None):
        return pointwise_apply(self.symbol, u, out=out)

    def prepare(self, tau, fractions):
        """{f: exp(f tau symbol)}: the outer product of the exp(f tau s_mu),
        d - 1 broadcast products into one C-ordered array."""
        return _exponentials(tau, fractions, lambda step: _outer(
            np.multiply, [symbol_exponential(s, step) for s in self.symbols]))

    def exp_apply(self, exponential, u, *, out=None):
        """A prepared exponential times u, into ``out`` if given (may be
        u): a pointwise product."""
        return pointwise_apply(exponential, u, out=out)


def build_fd_operator(params, extents, lengths, bc):
    """Kronecker-form operator for FD discretizations with bc "dirichlet"
    or "dirichlet_neumann"; each of the d per-direction factors carries
    alpha2 / d, so their Kronecker sum carries alpha2 once."""
    if len(extents) != len(lengths):
        raise ValueError("one length per direction required")
    d = len(extents)
    mats = []
    for n, length in zip(extents, lengths):
        d2 = fd_second_derivative(bc, n, length)
        mats.append(params.diffusion * d2 + (params.alpha2 / d) * np.eye(n))
    return KroneckerOperator(mats)


def build_periodic_operator(grid, params, advection_sign=0):
    """Fourier-form operator for periodic pseudospectral discretizations."""
    return FourierOperator(grid, direction_symbols(grid, params,
                                                   advection_sign))
