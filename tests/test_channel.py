import numpy as np
import pytest
from scipy import stats

from beamsteer import channel, semetrics
from beamsteer.arrays import ArrayConfig, steering_vector
from beamsteer.channel import TWO_PI, child_rng, sample_path_params

from los_reference import PathParams, los_channel

CFG8 = ArrayConfig(8, 0.5)


def test_gain_second_moment():
    # E|alpha|^2 = E x = 1
    _, x = sample_path_params(child_rng(1, 10**6, 0), 10**6)
    assert np.mean(x) == pytest.approx(1.0, abs=0.005)


def test_aod_mean_uniform():
    aods, _ = sample_path_params(child_rng(2, 10**6, 0), 10**6)
    assert aods.mean() == pytest.approx(np.pi, abs=0.01)
    assert aods.min() >= 0.0 and aods.max() < 2 * np.pi


def test_aod_uniform_ks():
    aods, _ = sample_path_params(child_rng(3, 10**5, 0), 10**5)
    ks = stats.kstest(aods, lambda x: x / (2 * np.pi)).statistic
    assert ks < 0.01


def test_power_exponential_ks():
    # x = |alpha|^2 of a CN(0, 1) gain is Exp(1)
    _, x = sample_path_params(child_rng(4, 10**5, 0), 10**5)
    assert x.min() >= 0.0 and x.max() <= 32 * np.log(2)
    assert stats.kstest(x, "expon").statistic < 0.01


# Philox4x32-10 round multipliers and Weyl increments (Salmon et al., SC'11)
M0, M1, W0, W1 = 0xD2511F53, 0xCD9E8D57, 0x9E3779B9, 0xBB67AE85


def philox4x32(counter, key):
    """Philox4x32-10 of one counter (4 words) under one key (2 words), one
    Python integer at a time: the scalar reference of ``channel._philox``."""
    c0, c1, c2, c3 = counter
    k0, k1 = key
    for _ in range(10):
        p0, p1 = M0 * c0, M1 * c2
        c0, c1, c2, c3 = ((p1 >> 32) ^ c1 ^ k0, p1 % 2**32,
                          (p0 >> 32) ^ c3 ^ k1, p0 % 2**32)
        k0, k1 = (k0 + W0) % 2**32, (k1 + W1) % 2**32
    return c0, c1, c2, c3


def reference_words(seed, attempt, step, steps):
    """(steps, 4) output words of the steps [step, step + steps) of the
    stream keyed by ``seed`` at resample ``attempt``."""
    key = (seed % 2**32, seed >> 32)
    return np.array([philox4x32((s % 2**32, s >> 32, attempt % 2**32, attempt >> 32), key)
                     for s in range(step, step + steps)], dtype=np.uint64)


def kernel_words(seed, attempt, step, steps):
    """The same words from ``channel._philox``, whose uniforms are w 2^-32."""
    return (channel._philox((seed, attempt, step), steps) * 2.0**32).astype(np.uint64)


@pytest.mark.parametrize("counter, key, words", [
    ((0, 0, 0, 0), (0, 0), (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
    ((0xFFFFFFFF,) * 4, (0xFFFFFFFF,) * 2, (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD)),
    ((0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344), (0xA4093822, 0x299F31D0),
     (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1)),
])
def test_philox_known_answers(counter, key, words):
    # Random123's known-answer vectors for Philox4x32-10
    assert philox4x32(counter, key) == words
    seed, step, attempt = (key[0] | key[1] << 32, counter[0] | counter[1] << 32,
                           counter[2] | counter[3] << 32)
    assert kernel_words(seed, attempt, step, 1).tolist() == [list(words)]


@pytest.mark.parametrize("seed, attempt, step", [
    (2026, 0, 0), (2**64 - 1, 999, 12345), (0x0123456789ABCDEF, 2**32 + 5, 7),
    (9, 1, 2**32 - 3), (2**63, 0, 2**33 - 2),
])
def test_philox_kernel_matches_scalar_reference(seed, attempt, step):
    # the last two runs of steps cross 2^32 and 2 * 2^32 into counter word 1
    assert kernel_words(seed, attempt, step, 6).tobytes() == \
        reference_words(seed, attempt, step, 6).tobytes()


def reference_draws(words, n_paths):
    """(aods, x) of the trials whose Philox4x32 output words are ``words``,
    (trials, 4 ceil(n_paths / 2)): a word w is the uniform w 2^-32; a trial's
    first K uniforms are the angles and the next K give the powers."""
    u = words * 2.0**-32
    return TWO_PI * u[:, :n_paths], -np.log1p(-u[:, n_paths:2 * n_paths])


@pytest.mark.parametrize("n_paths", [1, 2, 5])
def test_draw_order_fixed(n_paths):
    # Trial t of K users reads the counter steps [t m, (t + 1) m), m =
    # ceil(K / 2), with the attempt in counter words 2 and 3, under the key
    # words of the seed.  The last two cases are redraws under the largest
    # seed.
    steps = -(-n_paths // 2)
    for seed, trial, attempt in ((2026, 0, 0), (9, 1725, 0), (0, 4099, 3), (2**64 - 1, 7, 1),
                                 (2**64 - 1, 4099, 999)):
        aods, x = sample_path_params(child_rng(seed, n_paths, trial, attempt), n_paths)
        words = reference_words(seed, attempt, trial * steps, steps).reshape(1, -1)
        ref_aods, ref_x = reference_draws(words, n_paths)
        assert aods.tobytes() == ref_aods[0].tobytes()
        assert x.tobytes() == ref_x[0].tobytes()


@pytest.mark.parametrize("n_paths", [1, 2, 3, 5])
def test_draw_block_matches_philox_across_partial_chunks(n_paths):
    # 5000 trials are the chunks 2048 + 2048 + 904, each drawn as a run draws it
    trials = 5000
    assert -(-trials // semetrics._CHUNK) == 3
    steps = -(-n_paths // 2)
    aods, x = map(np.concatenate, zip(*(
        semetrics._draw_chunk(2026, n_paths, s, min(semetrics._CHUNK, trials - s))
        for s in range(0, trials, semetrics._CHUNK))))
    words = reference_words(2026, 0, 0, steps * trials).reshape(trials, -1)
    ref_aods, ref_x = reference_draws(words, n_paths)
    assert aods.tobytes() == ref_aods.tobytes()
    assert x.tobytes() == ref_x.tobytes()


@pytest.mark.parametrize("cuts", [(), (1,), (7, 8, 300), (2047, 2049, 4000), (1, 2, 3, 4, 4095)])
def test_draws_do_not_depend_on_chunking(cuts):
    # any split of trials [0, 4096) into chunks draws the bytes of one call,
    # and each trial those of its own call
    for n_paths in (1, 3, 4):
        whole = sample_path_params(child_rng(77, n_paths, 0), n_paths, 4096)
        bounds = (0, *cuts, 4096)
        parts = [sample_path_params(child_rng(77, n_paths, a), n_paths, b - a)
                 for a, b in zip(bounds, bounds[1:])]
        for drawn, chunked in zip(whole, zip(*parts)):
            assert drawn.tobytes() == np.concatenate(chunked).tobytes()
        for t in (0, 1, 2048, 4095):
            aods, x = sample_path_params(child_rng(77, n_paths, t), n_paths)
            assert (aods.tobytes(), x.tobytes()) == (whole[0][t].tobytes(), whole[1][t].tobytes())


def test_los_single_antenna():
    h = los_channel(PathParams(gain=1.0, aod=0.7), ArrayConfig(1))
    assert np.allclose(h, [1.0])


def test_los_broadside_all_ones():
    h = los_channel(PathParams(gain=1.0, aod=0.0), ArrayConfig(4, 0.5))
    assert np.allclose(h, np.ones(4))


def test_los_aligned_gain():
    cfg = ArrayConfig(16, 0.5)
    p = PathParams(gain=2.0 + 0j, aod=1.1)
    h = los_channel(p, cfg)
    assert h @ steering_vector(p.aod, cfg) == pytest.approx(8.0 + 0j, abs=1e-12)


def test_los_norm():
    cfg = ArrayConfig(16, 0.5)
    p = PathParams(gain=0.3 - 1.2j, aod=2.9)
    assert np.linalg.norm(los_channel(p, cfg)) == pytest.approx(
        np.sqrt(16) * abs(p.gain), abs=1e-12)


def test_channel_power_normalization():
    # E||h||^2 = n_tx
    n = 10**5
    aods, x = sample_path_params(child_rng(5, n, 0), n)
    total = sum(np.linalg.norm(los_channel(PathParams(g, a), CFG8)) ** 2
                for g, a in zip(np.sqrt(x), aods))
    assert total / n == pytest.approx(8.0, rel=0.02)


def test_rank_one_structure_pure_los():
    cfg = ArrayConfig(6, 0.5)
    h = los_channel(PathParams(gain=1.3 - 0.4j, aod=0.8), cfg)
    outer = np.outer(h, h.conj())
    for a in range(6):
        for b in range(a + 1, 6):
            for c in range(6):
                for d in range(c + 1, 6):
                    minor = outer[a, c] * outer[b, d] - outer[a, d] * outer[b, c]
                    assert abs(minor) < 1e-10


def test_child_rng_substreams():
    def draw(*position):
        return b"".join(a.tobytes() for a in sample_path_params(child_rng(*position), 2))

    r1 = draw(100, 2, 5)
    r2 = draw(100, 2, 5)
    r3 = draw(100, 2, 6)
    r4 = draw(100, 2, 5, 1)
    assert r1 == r2
    assert r1 != r3
    assert r1 != r4


@pytest.mark.parametrize("seed", [-1, 2**64, 2**128 + 1])
def test_seed_outside_key_word_rejected(seed):
    # a seed of 2**64 or more would run into the attempt's key word
    with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
        child_rng(seed, 2, 0)
    child_rng(2**64 - 1, 2, 0, attempt=999)
