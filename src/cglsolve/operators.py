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
derivative constraint is folded into the last two rows. One table,
``_FD_BOUNDARIES``, gives each boundary kind's spacing, fewest nodes and
last two rows to ``fd_second_derivative``, ``fd_nodes`` and
``build_fd_operator``.

Operators hold no state but their definition. ``prepare(tau, fractions)``
returns the exponentials of the exact step fractions (fractions.Fraction)
as ``{fraction: exponential}``: per-direction matrices for the Kronecker
form, a symbol tensor for the Fourier form, one of those per block for a
``BlockOperator``. ``exp_apply(exponential, u)`` applies one of them. The
integrator prepares once per run and binds the values into its stepper,
so a step never recomputes or looks up an exponential.
"""

from fractions import Fraction
from functools import partial

import numpy as np

from .linalg import expm_pade
from .spectral import build_symbol, pointwise_apply, symbol_exponential
from .tensors import kron_sum_apply, tucker_apply

__all__ = [
    "fd_second_derivative",
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


def _boundary(kind):
    if kind not in _FD_BOUNDARIES:
        raise ValueError(f"unknown boundary kind {kind!r}")
    return _FD_BOUNDARIES[kind]


def fd_second_derivative(kind, n, length):
    """Fourth-order D2 on the n nodes of ``fd_nodes(kind, n, length)``."""
    extra, fewest, (penultimate, last) = _boundary(kind)
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


def fd_second_derivative_dirichlet(n, length):
    """Fourth-order D2 with u(0) = u(length) = 0 on the n interior nodes."""
    return fd_second_derivative("dirichlet", n, length)


def fd_second_derivative_dirichlet_neumann(n, length):
    """Fourth-order D2 with u(0) = 0 and u'(length) = 0 on n nodes."""
    return fd_second_derivative("dirichlet_neumann", n, length)


def fd_nodes(kind, n, length):
    """Grid nodes matching the FD matrices (1-based interior numbering)."""
    return np.arange(1, n + 1) * (length / (n + _boundary(kind)[0]))


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

    def apply(self, u):
        return kron_sum_apply(u, self.matrices)

    def prepare(self, tau, fractions):
        """{f: [exp(f tau A_mu) for each direction mu]}."""
        return _exponentials(tau, fractions, lambda step: [
            expm_pade(m, step) for m in self.matrices])

    def exp_apply(self, exponential, u, *, out=None):
        """A prepared exponential times u, into ``out`` if given (never u
        itself): a Tucker product."""
        return tucker_apply(u, exponential, out=out)


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

    def apply(self, u):
        return pointwise_apply(self.symbol, u)

    def prepare(self, tau, fractions):
        """{f: exp(f tau symbol)}."""
        return _exponentials(tau, fractions,
                             partial(symbol_exponential, self.symbol))

    def exp_apply(self, exponential, u, *, out=None):
        """A prepared exponential times u, into ``out`` if given (may be
        u): a pointwise product."""
        return pointwise_apply(exponential, u, out=out)


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
        """{f: (each block's exponential of f)}."""
        per_block = [b.prepare(tau, fractions) for b in self.blocks]
        return {f: tuple(e[f] for e in per_block) for f in per_block[0]}

    def exp_apply(self, exponentials, fields, *, out=None):
        """Each block's exp_apply with its exponential, into the arrays of
        ``out`` if given."""
        self._check(fields)
        if out is None:
            return tuple(b.exp_apply(e, u) for b, e, u
                         in zip(self.blocks, exponentials, fields))
        self._check(out)
        for b, e, u, v in zip(self.blocks, exponentials, fields, out):
            b.exp_apply(e, u, out=v)
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
    d = len(extents)
    mats = []
    for n, length in zip(extents, lengths):
        d2 = fd_second_derivative(bc, n, length)
        mats.append(params.diffusion * d2 + (params.alpha2 / d) * np.eye(n))
    return KroneckerOperator(mats)


def build_periodic_operator(grid, params, advection_sign=0):
    """Fourier-form operator for periodic pseudospectral discretizations."""
    return FourierOperator(grid, build_symbol(grid, params, advection_sign))
