import numpy as np
import pytest
from scipy import stats

from beamsteer import semetrics
from beamsteer.arrays import ArrayConfig, steering_vector
from beamsteer.channel import TWO_PI, child_rng, sample_path_params

from los_reference import PathParams, los_channel

CFG8 = ArrayConfig(8, 0.5)


def test_gain_second_moment():
    _, gains = sample_path_params(child_rng(1, 10**6, 0), 10**6)
    assert np.mean(np.abs(gains) ** 2) == pytest.approx(1.0, abs=0.005)


def test_aod_mean_uniform():
    aods, _ = sample_path_params(child_rng(2, 10**6, 0), 10**6)
    assert aods.mean() == pytest.approx(np.pi, abs=0.01)
    assert aods.min() >= 0.0 and aods.max() < 2 * np.pi


def test_aod_uniform_ks():
    aods, _ = sample_path_params(child_rng(3, 10**5, 0), 10**5)
    ks = stats.kstest(aods, lambda x: x / (2 * np.pi)).statistic
    assert ks < 0.01


def test_gain_components_independent_gaussian():
    _, gains = sample_path_params(child_rng(4, 10**6, 0), 10**6)
    assert gains.real.var() == pytest.approx(0.5, rel=0.01)
    assert gains.imag.var() == pytest.approx(0.5, rel=0.01)
    assert np.mean(gains.real * gains.imag) == pytest.approx(0.0, abs=0.005)


def reference_draws(raw, n_paths):
    """(aods, gains) of the trials whose Philox4x64 words are ``raw``, (trials,
    4 ceil(3 n_paths / 4)): a word w is the uniform (w >> 11) 2^-53; a trial's
    first K uniforms are the angles, the next K the radii and the next K the
    phases of the gains (Box-Muller)."""
    u = (raw >> np.uint64(11)) * 2.0**-53
    aods = TWO_PI * u[:, :n_paths]
    gains = (np.sqrt(-np.log1p(-u[:, n_paths:2 * n_paths]))
             * np.exp(1j * TWO_PI * u[:, 2 * n_paths:3 * n_paths]))
    return aods, gains


@pytest.mark.parametrize("n_paths", [1, 2, 5])
def test_draw_order_fixed(n_paths):
    # Trial t of K users reads the Philox4x64 counter steps [t m, (t + 1) m),
    # m = ceil(3K / 4), under the key seed + (attempt << 64); the oracle is
    # numpy.random.Philox, which the package itself never loads.  The last
    # two cases are redraws under the largest seed.
    steps = -(-3 * n_paths // 4)
    for seed, trial, attempt in ((2026, 0, 0), (9, 1725, 0), (0, 4099, 3), (2**64 - 1, 7, 1),
                                 (2**64 - 1, 4099, 999)):
        aods, gains = sample_path_params(child_rng(seed, n_paths, trial, attempt), n_paths)
        raw = np.random.Philox(key=seed + attempt * 2**64).random_raw(4 * steps * (trial + 1))
        ref_aods, ref_gains = reference_draws(raw[-4 * steps:].reshape(1, -1), n_paths)
        assert aods.tobytes() == ref_aods[0].tobytes()
        assert gains.tobytes() == ref_gains[0].tobytes()


@pytest.mark.parametrize("n_paths", [1, 2, 3, 5])
def test_draw_block_matches_philox_across_partial_chunks(n_paths):
    # 5000 trials are the chunks 2048 + 2048 + 904, each drawn as a run draws it
    trials = 5000
    assert -(-trials // semetrics._CHUNK) == 3
    steps = -(-3 * n_paths // 4)
    aods, gains = map(np.concatenate, zip(*(
        semetrics._draw_chunk(2026, n_paths, s, min(semetrics._CHUNK, trials - s))
        for s in range(0, trials, semetrics._CHUNK))))
    raw = np.random.Philox(key=2026).random_raw(4 * steps * trials).reshape(trials, -1)
    ref_aods, ref_gains = reference_draws(raw, n_paths)
    for t in range(trials):
        assert aods[t].tobytes() == ref_aods[t].tobytes(), t
        assert gains[t].tobytes() == ref_gains[t].tobytes(), t


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
    aods, gains = sample_path_params(child_rng(5, n, 0), n)
    total = sum(np.linalg.norm(los_channel(PathParams(g, a), CFG8)) ** 2
                for g, a in zip(gains, aods))
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
