"""Slow reference implementations used to check the package routes.

Everything here is written the dumb way on purpose: index loops, explicit
Kronecker assembly, direct DFT summation, fine-step RK4. These are the
independent side of every two-route comparison in the test suite, so none
of them may call into cglsolve.
"""

import numpy as np


def mu_mode_ref(u, mat, axis):
    """Mode product via explicit index loops."""
    u = np.asarray(u)
    mat = np.asarray(mat)
    out_shape = list(u.shape)
    out_shape[axis] = mat.shape[0]
    out = np.zeros(out_shape, dtype=np.promote_types(u.dtype, mat.dtype))
    for idx in np.ndindex(*out_shape):
        acc = 0.0
        for k in range(u.shape[axis]):
            src = list(idx)
            src[axis] = k
            acc += mat[idx[axis], k] * u[tuple(src)]
        out[idx] = acc
    return out


def kron_chain(mats):
    """np.kron(mats[-1], ..., mats[0]): the matrix matching column-major vec."""
    out = np.eye(1)
    for m in mats:
        out = np.kron(m, out)
    return out


def kron_mode_matrix(shape, mat, axis):
    """Explicit matrix of the single-mode product on tensors of `shape`."""
    factors = [np.eye(n) for n in shape]
    factors[axis] = np.asarray(mat)
    return kron_chain(factors)


def kron_sum_matrix(mats):
    """Explicit Kronecker-sum matrix for per-direction factors `mats`."""
    shape = tuple(m.shape[1] for m in mats)
    n = int(np.prod(shape))
    out = np.zeros((n, n), dtype=complex)
    for axis, m in enumerate(mats):
        out += kron_mode_matrix(shape, m, axis)
    return out


def vec(u):
    """Flatten a tensor column-major (first index fastest)."""
    return np.asarray(u).reshape(-1, order="F")


def unvec(x, shape):
    """Inverse of :func:`vec` for the given shape."""
    return np.asarray(x).reshape(tuple(shape), order="F")


def expm_taylor_ref(a, scale=1.0, terms=60):
    """Taylor-series exponential: halve the argument until its 1-norm is
    at most 1, sum `terms` terms, then square back up."""
    b = scale * np.array(a, dtype=complex)
    squarings = 0
    while np.linalg.norm(b, 1) > 1.0:
        b = b / 2.0
        squarings += 1
    n = b.shape[0]
    f = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    for k in range(1, terms):
        term = term @ b / k
        f = f + term
    for _ in range(squarings):
        f = f @ f
    return f


def dft_direct(u):
    """O(N^2) forward DFT (unnormalized), any dimension."""
    u = np.asarray(u, dtype=complex)
    out = np.zeros_like(u)
    shape = u.shape
    for kidx in np.ndindex(*shape):
        acc = 0.0 + 0.0j
        for jidx in np.ndindex(*shape):
            phase = sum(2.0 * np.pi * k * j / n
                        for k, j, n in zip(kidx, jidx, shape))
            acc += u[jidx] * np.exp(-1j * phase)
        out[kidx] = acc
    return out


def idft_direct(uhat):
    """O(N^2) inverse DFT carrying the 1/N factor."""
    uhat = np.asarray(uhat, dtype=complex)
    out = np.zeros_like(uhat)
    shape = uhat.shape
    total = int(np.prod(shape))
    for jidx in np.ndindex(*shape):
        acc = 0.0 + 0.0j
        for kidx in np.ndindex(*shape):
            phase = sum(2.0 * np.pi * k * j / n
                        for k, j, n in zip(kidx, jidx, shape))
            acc += uhat[kidx] * np.exp(1j * phase)
        out[jidx] = acc / total
    return out


def rk4_ode_ref(f, u0, t, substeps=4096):
    """Classical RK4 with many substeps; reference for exact flow formulas."""
    u = np.array(u0, dtype=complex)
    h = t / substeps
    for _ in range(substeps):
        k1 = f(u)
        k2 = f(u + 0.5 * h * k1)
        k3 = f(u + 0.5 * h * k2)
        k4 = f(u + h * k3)
        u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return u


def power_flow_ref(u0, t, a, b, p):
    """Exact flow of u' = (a + i b)|u|^p u as one whole-array formula."""
    u0 = np.asarray(u0, dtype=complex)
    y = p * a * np.abs(u0) ** p * t
    return u0 * np.exp(-(complex(a, b) / (p * a)) * np.log1p(-y))


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
