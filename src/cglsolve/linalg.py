"""Dense linear algebra: the Pade matrix exponential.

``expm_pade`` evaluates the degree-13 diagonal Pade approximant with
scaling and squaring: it halves the matrix until its 1-norm is within the
degree-13 threshold, evaluates the approximant there and squares the
result back up, all with numpy's BLAS held at one thread
(``spectral._one_blas_thread``), so its bits do not depend on the CPU
count. The tests cross-check it against a truncated Taylor series kept
in ``tests/oracles.py``.
"""

import math

import numpy as np

from . import spectral

__all__ = ["ExponentialOverflowError", "expm_pade"]


class ExponentialOverflowError(ValueError):
    """exp(scale * a) is not finite in double precision."""

# The 1-norm up to which the degree-13 approximant's backward error stays
# within double-precision roundoff, and its coefficients (Higham, SIAM J.
# Matrix Anal. Appl. 26, 2005) divided by the constant one, so that exp(0)
# is I bit for bit.
_THETA13 = 5.371920351148152e0
_COEFFS = tuple(c / 64764752532480000.0 for c in (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
    16380.0, 182.0, 1.0))


def _as_square_finite(a, scale):
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    if not np.isfinite(scale):
        raise ValueError("scale must be finite")
    with np.errstate(over="ignore"):
        b = np.asarray(a, dtype=complex) * scale
        norm = np.linalg.norm(b, 1) if b.size else 0.0
    if not np.isfinite(norm):
        raise ValueError("scale * a is too large: its 1-norm is not finite")
    return b, norm


def _pade13(b):
    """The degree-13 Pade approximant of exp(b): odd powers of b build u,
    even ones v, and exp(b) ~ (v - u)^-1 (v + u)."""
    c = _COEFFS
    ident = np.eye(b.shape[0], dtype=complex)
    b2 = b @ b
    b4 = b2 @ b2
    b6 = b2 @ b4
    u = b @ (b6 @ (c[13] * b6 + c[11] * b4 + c[9] * b2)
             + c[7] * b6 + c[5] * b4 + c[3] * b2 + c[1] * ident)
    v = (b6 @ (c[12] * b6 + c[10] * b4 + c[8] * b2)
         + c[6] * b6 + c[4] * b4 + c[2] * b2 + c[0] * ident)
    return np.linalg.solve(v - u, v + u)


def expm_pade(a, scale=1.0):
    """Matrix exponential ``exp(scale * a)`` by Pade scaling-and-squaring;
    ValueError for a non-square or non-finite ``a``, a non-finite
    ``scale``, or a ``scale * a`` whose 1-norm is not finite, and
    ExponentialOverflowError at the first squaring that is not finite."""
    b, norm = _as_square_finite(a, scale)
    squarings = max(0, math.ceil(math.log2(norm / _THETA13))) if norm else 0
    with spectral._one_blas_thread():
        f = _pade13(b / (2.0 ** squarings))
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(1, squarings + 1):
                f = f @ f
                if not np.all(np.isfinite(f)):
                    raise ExponentialOverflowError(
                        f"matrix exponential overflows at squaring {k} "
                        f"of {squarings}")
    return f
