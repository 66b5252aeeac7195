"""Dense linear algebra: the Pade matrix exponential.

``expm_pade`` follows the standard degree-{3,5,7,9,13} diagonal-Pade ladder
with scaling and squaring: pick the smallest degree whose 1-norm threshold
accommodates the argument, otherwise halve the matrix until the degree-13
threshold holds and square the result back up. The tests cross-check it
against a truncated Taylor series kept in ``tests/oracles.py``.
"""

import math

import numpy as np

__all__ = ["ExponentialOverflowError", "expm_pade"]


class ExponentialOverflowError(ValueError):
    """exp(scale * a) is not finite in double precision."""

# 1-norm thresholds for the double-precision Pade degree ladder.
_THETA = (
    (3, 1.495585217958292e-2),
    (5, 2.539398330063230e-1),
    (7, 9.504178996162932e-1),
    (9, 2.097847961257068e0),
    (13, 5.371920351148152e0),
)

_COEFFS = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0,
        56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0,
         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
         960960.0, 16380.0, 182.0, 1.0),
}


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


def _pade_approximant(b, degree):
    c = _COEFFS[degree]
    n = b.shape[0]
    ident = np.eye(n, dtype=complex)
    b2 = b @ b
    if degree == 13:
        b4 = b2 @ b2
        b6 = b2 @ b4
        u = b @ (b6 @ (c[13] * b6 + c[11] * b4 + c[9] * b2)
                 + c[7] * b6 + c[5] * b4 + c[3] * b2 + c[1] * ident)
        v = (b6 @ (c[12] * b6 + c[10] * b4 + c[8] * b2)
             + c[6] * b6 + c[4] * b4 + c[2] * b2 + c[0] * ident)
    else:
        # odd coefficients build u = b * sum c[2k+1] b^(2k), even ones v
        u = c[1] * ident
        v = c[0] * ident
        power = ident
        for k in range(1, degree // 2 + 1):
            power = power @ b2
            u = u + c[2 * k + 1] * power
            v = v + c[2 * k] * power
        u = b @ u
    return np.linalg.solve(v - u, v + u)


def expm_pade(a, scale=1.0):
    """Matrix exponential ``exp(scale * a)`` by Pade scaling-and-squaring;
    ValueError for a non-square or non-finite ``a``, a non-finite
    ``scale``, or a ``scale * a`` whose 1-norm is not finite, and
    ExponentialOverflowError at the first squaring that is not finite."""
    b, norm = _as_square_finite(a, scale)
    for degree, theta in _THETA[:-1]:
        if norm <= theta:
            return _pade_approximant(b, degree)
    theta13 = _THETA[-1][1]
    squarings = max(0, math.ceil(math.log2(norm / theta13))) if norm > theta13 else 0
    f = _pade_approximant(b / (2.0 ** squarings), 13)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, squarings + 1):
            f = f @ f
            if not np.all(np.isfinite(f)):
                raise ExponentialOverflowError(
                    f"matrix exponential overflows at squaring {k} of "
                    f"{squarings}")
    return f
