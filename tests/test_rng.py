"""Counter-based generator: determinism, streaming, moments, and bit
identity with the whole-array oracle at any split."""

import numpy as np
import pytest

from cglsolve import rng, spectral
from cglsolve.rng import normal_tensor

from oracles import normal_tensor_ref, standard_normals_ref, uniforms_ref


def uniforms(seed, count, start=0):
    """Doubles in (0, 1] from counter positions start..start+count-1, the
    stream that ``normal_tensor`` pairs up."""
    seed = rng._check_seed(seed)
    out = np.empty(count)
    z, t = np.empty((2, count), dtype=np.uint64)
    rng._uniforms_into(seed, start, rng._gammas(count), out, z, t)
    return out


def test_same_seed_bit_identical():
    a = normal_tensor(2024, (1000,))
    b = normal_tensor(2024, (1000,))
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = normal_tensor(1, (100,))
    b = normal_tensor(2, (100,))
    assert np.max(np.abs(a - b)) > 1e-3


def test_stream_is_counter_addressed():
    # a prefix never depends on how much is drawn in total
    long = normal_tensor(7, (1001,))
    short = normal_tensor(7, (17,))
    assert np.array_equal(long[:17], short)
    # uniform blocks can be requested by offset
    block = uniforms(7, 10, start=5)
    assert np.array_equal(uniforms(7, 15)[5:], block)


def test_uniforms_in_half_open_unit_interval():
    u = uniforms(99, 100000)
    assert np.all(u > 0.0)
    assert np.all(u <= 1.0)


def test_moments():
    z = normal_tensor(31415, (1 << 16,))
    n = z.size
    assert abs(z.mean()) <= 5.0 / np.sqrt(n)
    assert abs(z.std() - 1.0) <= 0.02
    # skewness and excess kurtosis near zero
    assert abs((z ** 3).mean()) <= 0.1
    assert abs((z ** 4).mean() - 3.0) <= 0.2


def test_normal_tensor_column_major_fill():
    t = normal_tensor(5, (3, 4))
    flat = normal_tensor(5, (12,))
    assert np.array_equal(t.reshape(-1, order="F"), flat)
    assert t.shape == (3, 4)


def test_frozen_first_values():
    # pinned stream values: any change to the generator must show up here
    head = [float.fromhex(x) for x in (
        "-0x1.cf9fb99cfab90p-2", "0x1.a9813db388d6fp-3",
        "0x1.53470d1ebc1f2p+1", "-0x1.f63166b13249ep-2")]
    assert normal_tensor(0, (4,)).tolist() == head
    # across value 8192, with the top seed and an odd count
    tail = [float.fromhex(x) for x in (
        "-0x1.43f611cee742fp-1", "-0x1.3d6f1a5e3a50dp-2",
        "-0x1.37db3fbf5775ep+0", "-0x1.bcaa495400c4cp-1",
        "0x1.2d359c8ddea64p+1")]
    assert normal_tensor(2 ** 64 - 1, (8195,))[8190:].tolist() == tail
    u = uniforms(0, 2)
    # splitmix64(0 + 1*gamma) top bits, checked against an int-arithmetic
    # reimplementation
    def ref(i):
        mask = (1 << 64) - 1
        z = ((i + 1) * 0x9E3779B97F4A7C15) & mask
        z ^= z >> 30
        z = (z * 0xBF58476D1CE4E5B9) & mask
        z ^= z >> 27
        z = (z * 0x94D049BB133111EB) & mask
        z ^= z >> 31
        return ((z >> 11) + 1) / float(1 << 53)

    assert u[0] == ref(0)
    assert u[1] == ref(1)


def test_seed_validation():
    for seed in (-1, 2 ** 64, 1.5, "3", np.float64(2.0)):
        for draw in (lambda: uniforms(seed, 3),
                     lambda: normal_tensor(seed, (3,)),
                     lambda: normal_tensor(seed, (2, 0))):
            with pytest.raises(ValueError, match="seed"):
                draw()


SEEDS = [0, 2 ** 64 - 1, np.uint64(0xD1B54A32D192ED03)]


@pytest.fixture(params=[1, 2, 5])
def threads(request, monkeypatch):
    monkeypatch.setattr(spectral, "_THREADS", request.param)
    return request.param


def _shapes():
    serial, chunk = spectral._SERIAL_BELOW, 2 * rng._PAIRS
    totals = sorted({serial - 1, serial, serial + 1,
                     chunk - 1, chunk, chunk + 1, 5 * chunk + 3})
    return ([(0,), (4, 0, 3), (1,), (7,), (3, 5, 7)]
            + [(n,) for n in totals]
            + [(5, chunk + 1, 3)])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", _shapes())
def test_normal_tensor_matches_the_oracle(threads, seed, shape):
    got = normal_tensor(seed, shape)
    assert got.shape == shape and got.dtype == np.float64
    assert got.flags.f_contiguous
    want = normal_tensor_ref(int(seed), shape)
    assert got.tobytes(order="F") == want.tobytes(order="F")


@pytest.mark.parametrize("seed", SEEDS)
def test_counts_match_the_oracle(threads, seed):
    for count in (0, 1, 2, 3, 2 * rng._PAIRS + 1,
                  spectral._SERIAL_BELOW + 3):
        got = normal_tensor(seed, (count,))
        assert got.tobytes() == standard_normals_ref(int(seed),
                                                     count).tobytes()
    for start, count in ((0, 1001), (1, 9), (2 ** 64 - 9, 9)):
        got = uniforms(seed, count, start=start)
        assert got.tobytes() == uniforms_ref(int(seed), count,
                                             start=start).tobytes()


def test_tiny_chunks_split_nothing(threads, monkeypatch):
    # many chunks per slab, a chunk ending on an odd count's dropped sine
    monkeypatch.setattr(rng, "_PAIRS", 3)
    monkeypatch.setattr(spectral, "_SERIAL_BELOW", 8)
    for shape in ((7,), (6,), (5, 9, 2), (61, 3)):
        got = normal_tensor(11, shape)
        assert got.tobytes(order="F") == normal_tensor_ref(
            11, shape).tobytes(order="F")
