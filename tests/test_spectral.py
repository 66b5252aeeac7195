"""Transform conventions and Fourier symbols against direct summation."""

import multiprocessing
import os
import subprocess
import sys
import threading
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cglsolve import spectral
from cglsolve.flows import NonlinearSpec, cubic_flow, eval_g
from cglsolve.integrators import _lincomb
from cglsolve.operators import build_periodic_operator
from cglsolve.params import CglParameters
from cglsolve.spectral import (
    FourierGrid,
    dft_forward,
    dft_inverse,
    direction_symbols,
    pointwise_apply,
    symbol_exponential,
    wavenumber_table,
)

from oracles import dense_symbol, dft_direct, idft_direct, random_complex

L = 100.0
PARAMS = CglParameters(alpha1=1.0, beta1=2.0, alpha2=1.0, alpha3=-1.0,
                       beta3=0.2)
CQ = CglParameters(alpha1=0.5, beta1=0.5, alpha2=-0.5, alpha3=2.52,
                   beta3=1.0, alpha4=-1.0, beta4=-0.11)


def test_wavenumber_table_even():
    k = wavenumber_table(8, (0.0, 2.0 * np.pi))
    # positive Nyquist slot for even extents
    assert np.allclose(k, [0, 1, 2, 3, 4, -3, -2, -1], rtol=0, atol=1e-15)


def test_wavenumber_table_odd():
    k = wavenumber_table(5, (0.0, 2.0 * np.pi))
    assert np.allclose(k, [0, 1, 2, -2, -1], rtol=0, atol=1e-15)


def test_wavenumber_table_scaling():
    k = wavenumber_table(4, (0.0, 100.0))
    assert np.allclose(k, np.array([0, 1, 2, -1]) * 2.0 * np.pi / 100.0)


@pytest.mark.parametrize("n,interval,match", [
    (1, (0.0, 1.0), "two grid points"), (8, (1.0, 1.0), "empty interval"),
    (8, (2.0, 1.0), "empty interval")])
def test_wavenumber_table_validation(n, interval, match):
    with pytest.raises(ValueError, match=match):
        wavenumber_table(n, interval)


@pytest.mark.parametrize("interval", [(0.0, np.inf), (-np.inf, 0.0),
                                      (-np.inf, np.inf), (-1e308, 1e308)])
def test_a_periodic_interval_needs_a_finite_length(interval):
    # an infinite length once gave NaN nodes and all-zero wavenumbers, so
    # the operator had no diffusion; a grid refuses an infinite end first,
    # by the scalar rule
    grid_says = ("finite length" if np.all(np.isfinite(interval))
                 else "interval end must be a finite real")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for make, says in (
                (lambda: FourierGrid((8,), (interval,)), grid_says),
                (lambda: wavenumber_table(8, interval), "finite length"),
                (lambda: wavenumber_table(8, tuple(map(np.float64,
                                                       interval))),
                 "finite length")):
            with pytest.raises(ValueError, match=says):
                make()


@pytest.mark.parametrize("shape", [(6,), (10,), (15,), (5, 4), (3, 4, 5)])
def test_forward_matches_direct_sum(shape):
    rng = np.random.default_rng(41)
    u = random_complex(rng, shape)
    got = dft_forward(u)
    want = dft_direct(u)
    assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


def test_inverse_matches_direct_sum():
    rng = np.random.default_rng(42)
    u = random_complex(rng, (8, 5))
    got = dft_inverse(u)
    want = idft_direct(u)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_round_trip_and_parseval():
    rng = np.random.default_rng(43)
    u = random_complex(rng, (12, 9))
    uhat = dft_forward(u)
    assert np.max(np.abs(dft_inverse(uhat) - u)) <= 1e-13
    # unnormalized forward: |u_hat|^2 sums to N |u|^2
    n = u.size
    assert np.isclose(np.sum(np.abs(uhat) ** 2), n * np.sum(np.abs(u) ** 2),
                      rtol=1e-12)


@pytest.mark.parametrize("n", [700, 350])
def test_mixed_radix_sizes(n):
    # delta impulse transforms to all ones at any radix mix
    delta = np.zeros(n, dtype=complex)
    delta[0] = 1.0
    assert np.max(np.abs(dft_forward(delta) - 1.0)) <= 1e-12


def _bit_identity_inputs():
    rng = np.random.default_rng(44)
    big = random_complex(rng, (80, 90, 30))
    return {
        "1d": random_complex(rng, (700,)),
        "700x350": random_complex(rng, (700, 350)),
        "odd-3d": random_complex(rng, (33, 41, 29)),
        "4d": random_complex(rng, (10, 12, 16, 18)),
        "real": rng.standard_normal((64, 64, 16)),
        "float32": rng.standard_normal((64, 64, 16)).astype(np.float32),
        "strided-view": big[::2, 1::3, :],
        "transposed-view": big.transpose(2, 0, 1),
    }


@pytest.fixture(params=[2, 5], ids=["2-slabs", "5-slabs"])
def slab_threads(request, monkeypatch):
    # force the threaded path whatever the machine's CPU count, including
    # more slabs than the pool has threads
    monkeypatch.setattr(spectral, "_THREADS", request.param)
    return request.param


@pytest.mark.parametrize("name", list(_bit_identity_inputs()))
def test_transforms_bit_identical_to_numpy(name, slab_threads):
    x = _bit_identity_inputs()[name]
    before = x.copy()
    for ours, numpys in ((dft_forward, np.fft.fftn),
                         (dft_inverse, np.fft.ifftn)):
        got = ours(x)
        want = numpys(x)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        # Problem.to_physical passes the live state
        assert np.array_equal(x, before)


def _small_and_one_cpu_inputs():
    rng = np.random.default_rng(49)
    big = random_complex(rng, (40, 30, 24))
    return {
        "f-2d": np.asfortranarray(random_complex(rng, (64, 48))),
        "f-3d": np.asfortranarray(random_complex(rng, (16, 16, 16))),
        # transposed strided views, which np.fft.fftn answers in their
        # own layout
        "strided-2d": big[:, 5, ::2].T,
        "strided-3d": big.transpose(2, 0, 1)[::2, 1::3],
        "f-3d-at-the-floor": np.asfortranarray(
            random_complex(rng, (64, 64, 16))),
    }


@pytest.mark.parametrize("name,threads", [
    (name, threads) for name in _small_and_one_cpu_inputs()
    for threads in ((1,) if name == "f-3d-at-the-floor" else (1, 2, 5))])
def test_small_and_one_cpu_transforms_are_c_ordered_with_numpys_bits(
        name, threads, monkeypatch):
    monkeypatch.setattr(spectral, "_THREADS", threads)
    x = _small_and_one_cpu_inputs()[name]
    assert (x.size < spectral._SERIAL_BELOW) != (name == "f-3d-at-the-floor")
    for ours, numpys in ((dft_forward, np.fft.fftn),
                         (dft_inverse, np.fft.ifftn)):
        got = ours(x)
        assert got.flags.c_contiguous
        assert np.array_equal(got, numpys(x))


@pytest.mark.parametrize("transform", [dft_forward, dft_inverse])
def test_a_0d_array_has_no_transform(transform):
    with pytest.raises(ValueError, match="at least one axis"):
        transform(np.array(3 + 1j))


def test_run_slabs_below_the_floor_runs_once_in_the_caller(slab_threads,
                                                           monkeypatch):
    def no_worker():
        raise AssertionError("a worker was started")

    monkeypatch.setattr(spectral, "_workers", [])
    monkeypatch.setattr(spectral, "_Worker", no_worker)
    calls = []

    def fn(lo, hi):
        calls.append((threading.get_ident(), lo, hi))
        return lo, hi

    caller = threading.get_ident()
    for n, entries in ((40, spectral._SERIAL_BELOW - 1), (0, 0), (1, 1),
                       (40, 40)):
        calls.clear()
        assert spectral.run_slabs(fn, n, entries) == [(0, n)]
        assert calls == [(caller, 0, n)]
    assert spectral._workers == []


def test_run_slabs_at_the_floor_splits_into_a_range_per_thread(
        slab_threads):
    cuts = [40 * i // slab_threads for i in range(slab_threads + 1)]
    got = []
    _in_thread(lambda: got.extend(spectral.run_slabs(
        lambda lo, hi: (lo, hi), 40, spectral._SERIAL_BELOW)))
    assert got == list(zip(cuts, cuts[1:]))


def test_error_in_a_pool_slab_reaches_caller(slab_threads, monkeypatch):
    line_fft = np.fft.fft

    def fft_failing_off_main_thread(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("slab failed")
        return line_fft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", fft_failing_off_main_thread)
    with pytest.raises(RuntimeError, match="slab failed"):
        dft_forward(np.ones((64, 64, 16), dtype=complex))


def test_callers_errstate_applies_in_slab_threads(slab_threads):
    x = np.ones((64, 64, 16), dtype=complex)
    x[-1, 0, 0] = np.inf  # in the last slab, which a pool thread transforms
    with np.errstate(invalid="raise"):
        with pytest.raises(FloatingPointError):
            dft_forward(x)
    with np.errstate(invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        dft_forward(x)


def test_slab_threads_stress(monkeypatch):
    monkeypatch.setattr(spectral, "_THREADS", 7)
    x = random_complex(np.random.default_rng(45), (33, 41, 29))
    want = np.fft.fftn(x)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            assert np.array_equal(dft_forward(x), want)
    finally:
        sys.setswitchinterval(interval)


def test_import_and_small_transforms_start_no_thread():
    code = ("import threading, numpy as np\n"
            "from cglsolve.spectral import dft_forward\n"
            "assert threading.active_count() == 1\n"
            "dft_forward(np.ones((16, 16, 16), dtype=complex))\n"
            "dft_forward(np.ones(1 << 16, dtype=complex))\n"
            "assert threading.active_count() == 1\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=60)


def _transform_in_child():
    dft_forward(np.ones((64, 64, 16), dtype=complex))


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork on this platform")
@pytest.mark.filterwarnings("ignore::DeprecationWarning")
def test_forked_child_gets_a_fresh_pool(slab_threads):
    _transform_in_child()  # the parent's pool now exists
    child = multiprocessing.get_context("fork").Process(
        target=_transform_in_child)
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join(timeout=10)
        pytest.fail("transform in forked child hung")
    assert child.exitcode == 0


def _holds_in_child():
    get = spectral._BLAS[0]
    seen = [spectral._holds, get()]
    with spectral._one_blas_thread():
        seen.append(get())
    seen += [spectral._holds, get()]
    assert seen == [0, 2, 1, 0, 2], seen


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork on this platform")
@pytest.mark.filterwarnings("ignore::DeprecationWarning")
def test_a_forked_child_starts_with_no_blas_hold(set_blas_threads):
    # the thread that holds the BLAS at one thread is not in the child,
    # so the child gets the count that hold restores and no hold of its own
    set_blas_threads(2)
    entered, release = threading.Event(), threading.Event()

    def parked():
        with spectral._one_blas_thread():
            entered.set()
            release.wait(timeout=60)

    thread = threading.Thread(target=parked, daemon=True)
    thread.start()
    try:
        assert entered.wait(timeout=60) and spectral._BLAS[0]() == 1
        child = multiprocessing.get_context("fork").Process(
            target=_holds_in_child)
        child.start()
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            child.join(timeout=10)
            pytest.fail("forked child hung")
    finally:
        release.set()
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert child.exitcode == 0
    assert spectral._holds == 0 and spectral._BLAS[0]() == 2


def _in_thread(target, timeout=60):
    """target() in a daemon thread; fails if it is still running after
    `timeout` seconds, and re-raises what it raised."""
    raised = []

    def run():
        try:
            target()
        except BaseException as err:  # re-raised below, in the test
            raised.append(err)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"{target} hung"
    if raised:
        raise raised[0]


def test_two_threads_share_the_pool_with_serial_bits(slab_threads,
                                                     monkeypatch):
    x = random_complex(np.random.default_rng(46), (64, 64, 16))
    small = 0.1 * x
    spec = NonlinearSpec("cubic_quintic", CQ)
    kernels = (lambda: dft_forward(x),
               lambda: eval_g(spec, (x,))[0],
               lambda: _lincomb((0.5, (x,)), (2.0, (x,)),
                                out=(np.empty_like(x),))[0],
               lambda: cubic_flow(small, 0.01, CQ))
    monkeypatch.setattr(spectral, "_THREADS", 1)
    want = [kernel() for kernel in kernels]
    monkeypatch.setattr(spectral, "_THREADS", slab_threads)
    mismatches = []

    def repeat():
        for _ in range(5):
            for kernel, serial in zip(kernels, want):
                if not np.array_equal(kernel(), serial):
                    mismatches.append(kernel)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=repeat) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not mismatches


def test_a_call_inside_a_slab_runs_serially(slab_threads):
    def inner(lo, hi):
        return threading.get_ident(), lo, hi

    def outer(lo, hi):
        return spectral.run_slabs(inner, 12, spectral._SERIAL_BELOW)

    got = []
    _in_thread(lambda: got.extend(
        spectral.run_slabs(outer, 40, spectral._SERIAL_BELOW)))
    assert len(got) == slab_threads
    for ranges in got:
        # every nested range, in order, on the thread that ran its slab
        assert len({ident for ident, _, _ in ranges}) == 1
        assert [lo for _, lo, _ in ranges] == [0] + [hi for _, _, hi
                                                     in ranges[:-1]]
        assert ranges[-1][2] == 12


@pytest.mark.parametrize("failing", ["caller", "worker"])
def test_the_pool_works_after_a_slab_raises(failing, slab_threads):
    def fn(lo, hi):
        if (lo == 0) == (failing == "caller"):
            raise RuntimeError("slab failed")
        return lo, hi

    def fail_then_run():
        with pytest.raises(RuntimeError, match="slab failed"):
            spectral.run_slabs(fn, 100, spectral._SERIAL_BELOW)
        cuts = [100 * i // slab_threads for i in range(slab_threads + 1)]
        assert (spectral.run_slabs(lambda lo, hi: (lo, hi), 100,
                                   spectral._SERIAL_BELOW)
                == list(zip(cuts, cuts[1:])))

    _in_thread(fail_then_run)
    x = random_complex(np.random.default_rng(47), (64, 64, 16))
    assert np.array_equal(dft_forward(x), np.fft.fftn(x))


def test_an_interrupted_call_leaves_a_working_pool(slab_threads,
                                                  monkeypatch):
    release = threading.Event()

    def slow(lo, hi):
        if lo > 0:  # a worker's range, still running when take is cut off
            release.wait(timeout=60)
        return "late", lo, hi

    def interrupted(worker):
        raise KeyboardInterrupt

    take = spectral._Worker.take
    monkeypatch.setattr(spectral._Worker, "take", interrupted)
    with pytest.raises(KeyboardInterrupt):
        spectral.run_slabs(slow, 100, spectral._SERIAL_BELOW)
    monkeypatch.setattr(spectral._Worker, "take", take)
    release.set()
    # the interrupted call's late outcomes must not answer this one
    cuts = [100 * i // slab_threads for i in range(slab_threads + 1)]
    got = []
    _in_thread(lambda: got.extend(spectral.run_slabs(
        lambda lo, hi: (lo, hi), 100, spectral._SERIAL_BELOW)))
    assert got == list(zip(cuts, cuts[1:]))


def test_the_pool_keeps_no_array_a_slab_captured(slab_threads):
    a = np.ones(1000)
    u = random_complex(np.random.default_rng(48), (64, 64, 16))
    refs = weakref.ref(a), weakref.ref(u)
    parts = spectral.run_slabs(lambda lo, hi: a[lo:hi], a.size,
                               spectral._SERIAL_BELOW)
    assert sum(float(p.sum()) for p in parts) == 1000.0
    pointwise_apply(u, u)
    del a, u, parts
    assert all(ref() is None for ref in refs)


class _FakeBlas:
    """A BLAS thread control that records what it is set to."""

    def __init__(self, count):
        self.count, self.sets = count, []

    def get(self):
        return self.count

    def put(self, count):
        self.sets.append(count)
        self.count = count


@pytest.fixture
def fake_blas(monkeypatch):
    fake = _FakeBlas(3)
    monkeypatch.setattr(spectral, "_BLAS", (fake.get, fake.put))
    return fake


def test_a_blas_hold_gives_the_count_back_on_return_and_on_error(fake_blas):
    with spectral._one_blas_thread() as held:
        assert held and fake_blas.count == 1
    assert fake_blas.count == 3
    with pytest.raises(KeyError):
        with spectral._one_blas_thread():
            raise KeyError("in the block")
    assert fake_blas.sets == [1, 3, 1, 3]


def test_nested_and_concurrent_blas_holds_give_the_count_back_once(
        fake_blas):
    entered, release = threading.Event(), threading.Event()

    def other():
        with spectral._one_blas_thread():
            entered.set()
            release.wait(timeout=60)

    thread = threading.Thread(target=other, daemon=True)
    try:
        with spectral._one_blas_thread():
            with spectral._one_blas_thread():
                thread.start()
                assert entered.wait(timeout=60)
            assert fake_blas.sets == [1]
        # the other thread still holds
        assert fake_blas.sets == [1]
    finally:
        release.set()
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert fake_blas.sets == [1, 3]
    with spectral._one_blas_thread():
        assert fake_blas.count == 1
    assert fake_blas.sets == [1, 3, 1, 3]


def test_blas_holds_stress(fake_blas):
    # more threads than cores, each nesting holds, with frequent switches:
    # inside any hold the count is 1, and each last hold gives it back
    inside = []

    def hold_often():
        for _ in range(200):
            with spectral._one_blas_thread():
                with spectral._one_blas_thread():
                    inside.append(fake_blas.count)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hold_often, daemon=True)
                   for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(thread.is_alive() for thread in threads)
    assert inside == [1] * 1600
    assert fake_blas.count == 3 and spectral._holds == 0
    assert fake_blas.sets == [1, 3] * (len(fake_blas.sets) // 2)


def test_without_a_blas_control_a_hold_holds_nothing(monkeypatch):
    monkeypatch.setattr(spectral, "_BLAS", None)
    with spectral._one_blas_thread() as held:
        assert held is False


def test_a_blas_hold_sets_numpys_openblas(set_blas_threads):
    set_blas_threads(2)
    get = spectral._BLAS[0]
    with spectral._one_blas_thread():
        with spectral._one_blas_thread():
            assert get() == 1
        assert get() == 1
    assert get() == 2
    with pytest.raises(ZeroDivisionError):
        with spectral._one_blas_thread():
            assert get() == 1
            1 / 0
    assert get() == 2


def test_grid_nodes_keep_left_endpoint():
    g = FourierGrid((8,), ((0.0, 100.0),))
    x = g.nodes(0)
    assert x[0] == 0.0
    assert np.isclose(x[-1], 100.0 - 100.0 / 8)


def test_spectral_derivative_is_exact_on_modes():
    g = FourierGrid((16,), ((0.0, L),))
    x = g.nodes(0)
    k = g.wavenumbers(0)
    for m in (1, 3, -5):
        u = np.exp(2j * np.pi * m * x / L)
        du = dft_inverse(1j * k * dft_forward(u))
        want = (2j * np.pi * m / L) * u
        assert np.max(np.abs(du - want)) <= 1e-12 * np.max(np.abs(want))


def test_symbol_zero_mode_is_alpha2():
    g = FourierGrid((8, 6), ((0.0, L), (0.0, 50.0)))
    s = build_periodic_operator(g, PARAMS).symbol
    assert s[0, 0] == PARAMS.alpha2


def test_symbol_matches_loop_reference():
    g = FourierGrid((6, 5), ((0.0, L), (-3.0, 4.0)))
    s = build_periodic_operator(g, PARAMS).symbol
    k0 = g.wavenumbers(0)
    k1 = g.wavenumbers(1)
    for i in range(6):
        for j in range(5):
            want = (PARAMS.diffusion * (-(k0[i] ** 2 + k1[j] ** 2))
                    + PARAMS.alpha2)
            assert abs(s[i, j] - want) <= 1e-14 * max(1.0, abs(want))


def test_symbol_advection_sign():
    p = CglParameters(alpha1=0.125, beta1=0.5, alpha2=-0.9, alpha0=-0.4,
                      alpha3=1.0, beta3=0.8, alpha4=-0.1, beta4=-0.6,
                      alpha5=0.5)
    g = FourierGrid((8, 4), ((0.0, 70.0), (0.0, 35.0)))
    plus = build_periodic_operator(g, p, advection_sign=+1).symbol
    minus = build_periodic_operator(g, p, advection_sign=-1).symbol
    k1 = g.wavenumbers(0)[:, None]
    assert np.allclose(plus - minus, 2j * p.alpha0 * np.broadcast_to(
        k1, g.shape), rtol=0, atol=1e-14)
    with pytest.raises(ValueError):
        build_periodic_operator(g, p, advection_sign=2)


def test_symbol_applied_to_plane_wave_is_laplacian():
    g = FourierGrid((16,), ((0.0, L),))
    x = g.nodes(0)
    p = CglParameters(alpha1=1.0)
    s = build_periodic_operator(g, p).symbol
    m = 3
    kappa = 2.0 * np.pi * m / L
    u = np.exp(1j * kappa * x)
    got = dft_inverse(pointwise_apply(s, dft_forward(u)))
    assert np.max(np.abs(got - (-kappa ** 2) * u)) <= 1e-11


@settings(max_examples=40, deadline=None)
@given(directions=st.lists(st.tuples(st.integers(2, 9),
                                     st.floats(-50.0, 50.0),
                                     st.floats(0.5, 100.0)),
                           min_size=1, max_size=3),
       sign=st.sampled_from([-1, 0, 1]))
def test_symbol_is_the_kronecker_sum_of_direction_symbols(directions, sign):
    p = CglParameters(alpha1=0.125, beta1=0.5, alpha2=-0.9, alpha0=-0.4)
    g = FourierGrid([n for n, _, _ in directions],
                    [(a, a + length) for _, a, length in directions])
    got = build_periodic_operator(g, p, sign).symbol
    parts = direction_symbols(g, p, sign)
    assert [s.shape for s in parts] == [(n,) for n in g.shape]
    kron_sum = np.zeros(g.shape, complex)
    for j in np.ndindex(*g.shape):
        kron_sum[j] = sum(s[i] for s, i in zip(parts, j))
    dense = dense_symbol([g.wavenumbers(axis) for axis in range(g.ndim)],
                         p.diffusion, p.alpha2, sign * p.alpha0)
    scale = np.max(np.abs(dense))
    assert got.shape == g.shape
    assert np.max(np.abs(got - kron_sum)) <= 1e-14 * scale
    assert np.max(np.abs(got - dense)) <= 1e-14 * scale


def test_symbol_exponential_modulus():
    g = FourierGrid((8, 8), ((0.0, L), (0.0, L)))
    s = build_periodic_operator(g, PARAMS).symbol
    tau = 0.37
    e = symbol_exponential(s, tau)
    assert np.allclose(np.abs(e), np.exp(tau * s.real), rtol=1e-13, atol=0)
    with pytest.raises(ValueError):
        symbol_exponential(s, np.inf)


def test_pointwise_apply_validates_shapes():
    with pytest.raises(ValueError):
        pointwise_apply(np.zeros((3, 3)), np.zeros((3, 4)))


def test_grid_validation():
    with pytest.raises(ValueError):
        FourierGrid((1,), ((0.0, 1.0),))
    with pytest.raises(ValueError):
        FourierGrid((8,), ((1.0, 1.0),))
    with pytest.raises(ValueError):
        FourierGrid((8, 8), ((0.0, 1.0),))


@pytest.mark.parametrize("end", ["1", 10 ** 400, 1 + 0j, True],
                         ids=["str", "huge-int", "complex", "bool"])
def test_grid_interval_ends_follow_the_scalar_rule(end):
    # float() once took "1", and 10**400 or 1+0j escaped as an
    # OverflowError or a TypeError
    with pytest.raises(ValueError, match="interval end must be a finite real"):
        FourierGrid((8,), ((0, end),))
    with pytest.raises(ValueError, match="interval end must be a finite real"):
        FourierGrid((8,), ((end, 0),))


def test_grid_interval_ends_of_any_real_kind_are_stored_as_floats():
    grid = FourierGrid((8, 8), ((0, 1), (np.float32(-0.5), np.int64(2))))
    assert grid.intervals == ((0.0, 1.0), (-0.5, 2.0))
    assert all(type(end) is float for iv in grid.intervals for end in iv)


@pytest.mark.parametrize("extent", [64.5, 64.0, "64", None])
def test_grid_rejects_non_integer_extents(extent):
    # int() would cut 64.5 to a 64-point grid without a word
    with pytest.raises(ValueError, match="extents must be integers"):
        FourierGrid((extent,), ((0.0, 50.0),))
    assert FourierGrid((np.int64(64),), ((0.0, 50.0),)).extents == (64,)
