"""Slow reference implementations used to check the package routes.

Everything here is written the dumb way on purpose: index loops, explicit
Kronecker assembly, direct DFT summation, fine-step RK4. These are the
independent side of every two-route comparison in the test suite, so none
of them may call into cglsolve.
"""

from functools import reduce

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


def lawson_rk4_ref(expk, g, u, tau):
    """One Lawson-RK4 step of u' = K u + g(u) in textbook form, with
    expk(f, v) = exp(f tau K) v: the classical RK4 stages on g, each
    carried to its node by the exponential, and the weights applied to
    every stage transported to the step's end."""
    k1 = g(u)
    k2 = g(expk(0.5, u + (0.5 * tau) * k1))
    k3 = g(expk(0.5, u) + (0.5 * tau) * k2)
    k4 = g(expk(1.0, u) + tau * expk(0.5, k3))
    return expk(1.0, u) + (tau / 6.0) * (expk(1.0, k1) + 2.0 * expk(0.5, k2)
                                         + 2.0 * expk(0.5, k3) + k4)


def lawson_rk_ref(expk, g, u, tau, a, b):
    """One step of the explicit Lawson scheme with Butcher weights a, b in
    textbook form, with expk(f, v) = E(f) v = exp(f tau K) v and nodes
    c_i = sum_j a_ij: U_i = E(c_i) u + tau sum_j a_ij E(c_i - c_j) g(U_j),
    and the step E(1) u + tau sum_j b_j E(1 - c_j) g(U_j)."""
    c = [float(sum(row)) for row in a] + [1.0]
    k = []

    def row(i, weights):
        x = expk(c[i], u)
        for j, w in enumerate(weights):
            if w:
                x = x + (tau * float(w)) * expk(c[i] - c[j], k[j])
        return x

    for i, weights in enumerate(a):
        k.append(g(row(i, weights)))
    return row(len(a), b)


def lawson_kutta38_ref(expk, g, u, tau):
    """One Lawson step of Kutta's 3/8 rule (nodes 0, 1/3, 2/3, 1) in
    textbook form, with expk(f, v) = exp(f tau K) v."""
    third = 1.0 / 3.0
    k1 = g(u)
    k2 = g(expk(third, u + (tau / 3.0) * k1))
    k3 = g(expk(2 * third, u) - (tau / 3.0) * expk(2 * third, k1)
           + tau * expk(third, k2))
    k4 = g(expk(1.0, u) + tau * (expk(1.0, k1) - expk(2 * third, k2)
                                 + expk(third, k3)))
    return expk(1.0, u) + (tau / 8.0) * (expk(1.0, k1)
                                         + 3.0 * expk(2 * third, k2)
                                         + 3.0 * expk(third, k3) + k4)


def lawson_rk4_fold_ref(expk, g, u, tau):
    """One Lawson-RK4 step with the sums of a step that folds each row
    left to right and sums the last row only once k4 exists:
    E(1)(tau/6 k1 + u) + tau/3 E(1/2)(k2 + k3) + tau/6 k4 in one fold.
    Given the same expk and g, a reordered step must keep these bits."""
    k1 = g(u)
    k2 = g(expk(0.5, (tau / 2) * k1 + u))
    k3 = g(expk(0.5, u) + (tau / 2) * k2)
    k4 = g(expk(1.0, u) + tau * expk(0.5, k3))
    return (expk(1.0, (tau / 6) * k1 + u) + (tau / 3) * expk(0.5, k2 + k3)
            + (tau / 6) * k4)


def power_flow_ref(u0, t, a, b, p):
    """Exact flow of u' = (a + i b)|u|^p u as one whole-array formula."""
    u0 = np.asarray(u0, dtype=complex)
    y = p * a * np.abs(u0) ** p * t
    return u0 * np.exp(-(complex(a, b) / (p * a)) * np.log1p(-y))


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def dense_symbol(wavenumbers, diffusion, alpha2, advection=0.0):
    """Full Fourier symbol summed on the whole grid:
    diffusion * (-sum_mu k_mu^2) + alpha2 + advection * (i k_1)."""
    shape = tuple(len(k) for k in wavenumbers)
    ksq = np.zeros(shape)
    for axis, k in enumerate(wavenumbers):
        ksq = ksq + np.reshape(k, [-1 if a == axis else 1
                                   for a in range(len(shape))]) ** 2
    symbol = diffusion * (-ksq) + alpha2
    if advection != 0.0:
        k1 = np.reshape(wavenumbers[0], (-1,) + (1,) * (len(shape) - 1))
        symbol = symbol + advection * (1j * k1)
    return symbol


def outer_table(ufunc, vectors):
    """The whole d-dimensional table reduce(ufunc.outer, vectors): with
    np.add the Kronecker sum of 1-D symbols, with np.multiply the
    product of their exponentials."""
    return reduce(ufunc.outer, vectors)


def necklace_dense(axes, delta=1.2, radius=6.0, width=2.5, lobes=5,
                   twist=3):
    """The necklace ring evaluated on the full 3D mesh of nodes."""
    x1, x2, x3 = np.meshgrid(*axes, indexing="ij")
    rho = np.hypot(x1, x2)
    theta = np.arctan2(x2, x1)
    r = np.sqrt((rho - radius) ** 2 + x3 ** 2) / width
    return (delta / np.cosh(r)) * np.cos(lobes * theta) \
        * np.exp(1j * twist * theta)


def uniforms_ref(seed, count, start=0):
    """The counter stream's uniforms, whole-array: splitmix64 of
    seed + (i+1) * gamma, top 53 bits mapped to (0, 1]."""
    counters = np.arange(start, start + count, dtype=np.uint64)
    z = np.uint64(seed) + (counters + np.uint64(1)) * np.uint64(
        0x9E3779B97F4A7C15)
    z = z ^ (z >> np.uint64(30))
    z = z * np.uint64(0xBF58476D1CE4E5B9)
    z = z ^ (z >> np.uint64(27))
    z = z * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    bits = z >> np.uint64(11)
    return (bits.astype(np.float64) + 1.0) / float(1 << 53)


def standard_normals_ref(seed, count):
    """Box-Muller over consecutive uniform pairs, whole-array."""
    pairs = (count + 1) // 2
    u = uniforms_ref(seed, 2 * pairs)
    u1 = u[0::2]
    u2 = u[1::2]
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    out = np.empty(2 * pairs)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:count]


def normal_tensor_ref(seed, shape):
    """standard_normals_ref filled first-index-fastest into shape."""
    total = int(np.prod(shape))
    return standard_normals_ref(seed, total).reshape(shape, order="F")
