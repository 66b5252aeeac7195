"""Semidiscrete linear operators for CGL problems.

Two representations:

* Kronecker form (finite differences): one dense matrix per direction,
  A_mu = (alpha1 + i beta1) D2_mu + (alpha2 / d) I, so the full operator is
  the Kronecker sum of the A_mu. Its exponential acts as a Tucker product
  of the small per-direction exponentials.
* Fourier form (periodic pseudospectral): a diagonal symbol tensor acting
  on coefficient space; the exponential is elementwise.

The D2 blocks are the fourth-order finite-difference second derivatives
with all entries rational multiples of 1/(12 h^2). Boundary closures use
one-sided stencils; with a Neumann condition at the right endpoint the
derivative constraint is folded into the last two rows.

Exponential caches are keyed by exact step fractions (fractions.Fraction)
and built once per (tau, fraction set) by ``prepare``; stepping never
recomputes an exponential.
"""

from fractions import Fraction
from functools import partial

import numpy as np

from .linalg import expm_pade
from .spectral import build_symbol, pointwise_apply, symbol_exponential
from .tensors import kron_sum_apply, tucker_apply

__all__ = [
    "fd_second_derivative_dirichlet",
    "fd_second_derivative_dirichlet_neumann",
    "fd_nodes",
    "KroneckerOperator",
    "FourierOperator",
    "BlockOperator",
    "build_fd_operator",
    "build_periodic_operator",
]

# numerator rows of the one-sided closures, denominators are all 12 h^2
_LEFT_EDGE = (-15.0, -4.0, 14.0, -6.0, 1.0)
_NEXT_TO_LEFT = (16.0, -30.0, 16.0, -1.0)
_CENTERED = (-1.0, 16.0, -30.0, 16.0, -1.0)
_NEUMANN_PENULTIMATE = (1.0, -6.0, 14.0, -4.0, -15.0, 10.0)
_NEUMANN_LAST = (1.0, -8.0 / 3.0, -6.0, 56.0, -145.0 / 3.0)


def fd_second_derivative_dirichlet(n, length):
    """Fourth-order D2 on interior nodes x_i = i h, h = length/(n+1).

    Homogeneous Dirichlet values at both endpoints are eliminated, so the
    matrix acts on the n interior values only.
    """
    if n < 6:
        raise ValueError("Dirichlet D2 needs at least 6 interior nodes")
    h = length / (n + 1)
    num = np.zeros((n, n))
    num[0, :5] = _LEFT_EDGE
    num[1, :4] = _NEXT_TO_LEFT
    for i in range(2, n - 2):
        num[i, i - 2:i + 3] = _CENTERED
    num[n - 2, n - 4:] = _NEXT_TO_LEFT[::-1]
    num[n - 1, n - 5:] = _LEFT_EDGE[::-1]
    return num / (12.0 * h * h)


def fd_second_derivative_dirichlet_neumann(n, length):
    """Fourth-order D2 with u(0) = 0 and u'(length) = 0.

    Nodes are x_i = i h, i = 1..n, with h = length/n, so the Neumann
    endpoint x_n = length carries an unknown. The last two rows absorb the
    derivative condition; the final row mixes in thirds (over 12 h^2).
    """
    if n < 7:
        raise ValueError("Dirichlet-Neumann D2 needs at least 7 nodes")
    h = length / n
    num = np.zeros((n, n))
    num[0, :5] = _LEFT_EDGE
    num[1, :4] = _NEXT_TO_LEFT
    for i in range(2, n - 2):
        num[i, i - 2:i + 3] = _CENTERED
    num[n - 2, n - 6:] = _NEUMANN_PENULTIMATE
    num[n - 1, n - 5:] = _NEUMANN_LAST
    return num / (12.0 * h * h)


def fd_nodes(kind, n, length):
    """Grid nodes matching the FD matrices (1-based interior numbering)."""
    if kind == "dirichlet":
        h = length / (n + 1)
    elif kind == "dirichlet_neumann":
        h = length / n
    else:
        raise ValueError(f"unknown boundary kind {kind!r}")
    return np.arange(1, n + 1) * h


def _exponentials(tau, fractions, build):
    """{f: build(f * tau)} for every step fraction f: an operator's cache."""
    if not np.isfinite(tau) or tau <= 0:
        raise ValueError("tau must be positive and finite")
    cache = {}
    for f in map(Fraction, fractions):
        if f <= 0:
            raise ValueError("step fractions must be positive")
        cache[f] = build(float(f) * float(tau))
    return cache


def _cached(cache, fraction):
    """The prepared exponential for a step fraction, in one lookup."""
    try:
        return cache[fraction]
    except KeyError:
        raise RuntimeError(f"exponential for fraction {fraction} not "
                           "prepared; call prepare()") from None


class KroneckerOperator:
    """Kronecker sum of per-direction matrices, with exponential cache."""

    representation = "grid"

    def __init__(self, matrices):
        self.matrices = [np.asarray(m, dtype=complex) for m in matrices]
        for m in self.matrices:
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError("per-direction factors must be square")
        self.shape = tuple(m.shape[0] for m in self.matrices)
        self._cache = {}

    def apply(self, u):
        return kron_sum_apply(u, self.matrices)

    def prepare(self, tau, fractions):
        """Precompute exp(f*tau*A_mu) for every requested fraction f."""
        self._cache = _exponentials(
            tau, fractions, lambda step: [expm_pade(m, step)
                                          for m in self.matrices])

    def exp_apply(self, fraction, u, *, out=None):
        """exp(fraction tau A) u, into ``out`` if given (never u itself)."""
        return tucker_apply(u, _cached(self._cache, fraction), out=out)


class FourierOperator:
    """Diagonal symbol operator on Fourier coefficient space."""

    representation = "fourier"

    def __init__(self, grid, symbol):
        symbol = np.asarray(symbol)
        if symbol.shape != grid.shape:
            raise ValueError("symbol shape must match the grid")
        self.grid = grid
        self.symbol = symbol
        self.shape = grid.shape
        self._cache = {}

    def apply(self, u):
        return pointwise_apply(self.symbol, u)

    def prepare(self, tau, fractions):
        self._cache = _exponentials(tau, fractions,
                                    partial(symbol_exponential, self.symbol))

    def exp_apply(self, fraction, u, *, out=None):
        """exp(fraction tau symbol) u, into ``out`` if given (may be u)."""
        return pointwise_apply(_cached(self._cache, fraction), u, out=out)


class BlockOperator:
    """Block-diagonal operator for coupled systems; acts componentwise."""

    def __init__(self, blocks):
        if not blocks:
            raise ValueError("need at least one block")
        kinds = {b.representation for b in blocks}
        if len(kinds) != 1:
            raise ValueError("all blocks must share a representation")
        shapes = {b.shape for b in blocks}
        if len(shapes) != 1:
            raise ValueError("all blocks must share a shape")
        self.blocks = list(blocks)
        self.representation = blocks[0].representation
        self.shape = blocks[0].shape

    def apply(self, fields):
        self._check(fields)
        return tuple(b.apply(u) for b, u in zip(self.blocks, fields))

    def prepare(self, tau, fractions):
        for b in self.blocks:
            b.prepare(tau, fractions)

    def exp_apply(self, fraction, fields, *, out=None):
        """Each block's exp_apply, into the arrays of ``out`` if given."""
        self._check(fields)
        if out is None:
            return tuple(b.exp_apply(fraction, u)
                         for b, u in zip(self.blocks, fields))
        self._check(out)
        for b, u, v in zip(self.blocks, fields, out):
            b.exp_apply(fraction, u, out=v)
        return out

    def _check(self, fields):
        if len(fields) != len(self.blocks):
            raise ValueError(
                f"expected {len(self.blocks)} components, got {len(fields)}")


def build_fd_operator(params, extents, lengths, bc):
    """Kronecker-form operator for FD discretizations.

    bc is "dirichlet" or "dirichlet_neumann"; the alpha2 shift is spread
    evenly over the d per-direction factors so their Kronecker sum carries
    it exactly once.
    """
    if len(extents) != len(lengths):
        raise ValueError("one length per direction required")
    build = {"dirichlet": fd_second_derivative_dirichlet,
             "dirichlet_neumann": fd_second_derivative_dirichlet_neumann}
    if bc not in build:
        raise ValueError(f"unknown boundary kind {bc!r}")
    d = len(extents)
    mats = []
    for n, length in zip(extents, lengths):
        d2 = build[bc](n, length)
        mats.append(params.diffusion * d2 + (params.alpha2 / d) * np.eye(n))
    return KroneckerOperator(mats)


def build_periodic_operator(grid, params, advection_sign=0):
    """Fourier-form operator for periodic pseudospectral discretizations."""
    return FourierOperator(grid, build_symbol(grid, params, advection_sign))
