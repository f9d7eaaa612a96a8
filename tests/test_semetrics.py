from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import exp1

from beamsteer import semetrics
from beamsteer.arrays import ArrayConfig, phase_progression, steering_vector
from beamsteer.beamforming import (DegeneratePrecoder, SingularEquivalentChannel,
                                   hbs_beamformer_set)
from beamsteer.bounds import cross_correlation_expectation
from beamsteer.channel import child_rng, sample_path_params
from beamsteer.semetrics import (MonteCarloEstimate, Scheme, SnrPoint, _gain_chunk, _gram,
                                 _gram_inverse, draw_blocks, run_monte_carlo, se_from_gains)

from los_reference import PathParams, los_channel


def one_block(seed, n_users, trials, workers=1):
    """The draw stage's block of one user count."""
    return draw_blocks(seed, [n_users], trials, workers=workers)[n_users]


def dense_trial_se(cfg, n_users, scheme, rho, seed, trial):
    """One trial rebuilt from the module operations, one user at a time.

    Draws from ``child_rng``, forms each LoS row with ``los_channel``, takes
    the steering columns (ABS, NoInterference) or ``hbs_beamformer_set`` (HBS,
    redrawing from the next attempt's stream while it reports a singular
    draw) and evaluates the SINR from ``h @ F`` directly.
    Returns (per-stream SE, number of redraws).
    """
    for attempt in range(1000):
        aods, gains = sample_path_params(child_rng(seed, n_users, trial, attempt), n_users)
        h = np.stack([los_channel(PathParams(g, a), cfg) for g, a in zip(gains, aods)])
        f = steering_vector(aods, cfg)
        if scheme is Scheme.HBS:
            try:
                f = hbs_beamformer_set(h, aods, cfg)
            except (SingularEquivalentChannel, DegeneratePrecoder):
                continue
        out = np.empty(n_users)
        for k in range(n_users):
            signal = abs(h[k] @ f[:, k]) ** 2
            interference = 0.0 if scheme is Scheme.NO_INTERFERENCE else sum(
                abs(h[k] @ f[:, i]) ** 2 for i in range(n_users) if i != k)
            out[k] = np.log2(1.0 + rho * signal / (rho * interference + 1.0))
        return out, attempt
    raise RuntimeError("reference resample limit exceeded")


def dense_se(cfg, n_users, scheme, rho, seed, start, count):
    """Reference (count, K) SE block, redraws per trial and per-trial tolerance.

    The kernel inverts the Gram matrix G in float64 for HBS and sends a trial
    to the extended-precision chain when eps64 ||G||_F ||G^{-1}||_F, a bound
    on the float64 solve's forward error, exceeds 5e-10.  Every scheme
    therefore matches per trial to a flat 1e-9.
    """
    se, attempts = zip(*(dense_trial_se(cfg, n_users, scheme, rho, seed, t)
                         for t in range(start, start + count)))
    return np.array(se), list(attempts), np.full(count, 1e-9)


def kernel_se(cfg, n_users, scheme, rho, seed, start, count, block=None):
    """The rho-free kernel's (count, K) signal and interference reduced to SE
    at ``rho``.

    The gain stage runs on ``block``, by default the draws of trials
    [start, start + count), one generator call as the draw stage makes it.
    """
    aods, gains = block or sample_path_params(child_rng(seed, n_users, start), n_users, count)
    ((signal, interference, resampled, _),) = _gain_chunk(aods, gains, cfg, [Scheme(scheme)],
                                                          seed, start)
    return se_from_gains(signal, interference, rho), resampled


def split(g2):
    """(signal, interference) of dense gains g2[..., k, i] = |h_k f_i|^2: the
    diagonal, and each row's sum over its off-diagonal entries alone."""
    off = ~np.eye(g2.shape[-1], dtype=bool)
    return np.diagonal(g2, axis1=-2, axis2=-1), np.where(off, g2, 0.0).sum(axis=-1)


def sinr(se):
    """Invert SE = log2(1 + SINR)."""
    return 2.0 ** np.asarray(se) - 1.0


def test_snr_point_roundtrip():
    p = SnrPoint.from_db(30.0)
    assert p.rho_linear == pytest.approx(1000.0)
    assert SnrPoint(100.0).rho_linear == 100.0
    for rho in (-1.0, 0.0):
        with pytest.raises(ValueError, match="positive"):
            SnrPoint(rho)


@pytest.mark.parametrize("make", [
    lambda: SnrPoint.from_db(float("nan")),
    lambda: SnrPoint.from_db(float("inf")),
    lambda: SnrPoint.from_db(float("-inf")),
    lambda: SnrPoint(float("nan")),
    lambda: SnrPoint(float("inf")),
    lambda: SnrPoint.from_db(4000.0),
    lambda: SnrPoint(rho_linear=float("nan")),
], ids=["db-nan", "db-inf", "db-minus-inf", "linear-nan", "linear-inf", "db-overflow",
        "direct-nan"])
def test_snr_point_rejects_non_finite(make):
    with pytest.raises(ValueError):
        make()


def test_sinr_single_stream_no_interference():
    h = np.array([[2.0 + 0j]])
    f = np.array([[1.0 + 0j]])
    assert sinr(se_from_gains(*split(np.abs(h @ f) ** 2), 1.0)[0]) == pytest.approx(4.0)


def test_sinr_identical_users_saturates_at_one():
    cfg = ArrayConfig(8, 0.5)
    h_row = los_channel(PathParams(1.0, 0.4), cfg)
    h = np.stack([h_row, h_row])
    f = np.stack([np.ones(8), np.ones(8)], axis=1) / np.sqrt(8)
    se = se_from_gains(*split(np.abs(h @ f) ** 2), 1e12)
    assert sinr(se[0]) == pytest.approx(1.0, rel=1e-9)


def test_sinr_matches_direct_formula():
    rng = np.random.default_rng(21)
    h = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
    f = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    rho = 7.5
    se = se_from_gains(*split(np.abs(h @ f) ** 2), rho)
    for k in range(3):
        num = rho * abs(h[k] @ f[:, k]) ** 2
        den = rho * sum(abs(h[k] @ f[:, i]) ** 2 for i in range(3) if i != k) + 1
        assert se[k] == pytest.approx(np.log2(1 + num / den), abs=1e-12)


def test_se_values():
    for sinr_value, se in ((0.0, 0.0), (1.0, 1.0), (3.0, 2.0)):
        assert se_from_gains(*split(np.array([[sinr_value]])), 1.0)[0] == pytest.approx(se)
    # batched over leading axes
    stacked = se_from_gains(*split(np.array([[[0.0]], [[1.0]], [[3.0]]])), 1.0)
    assert stacked.shape == (3, 1)
    assert stacked[:, 0] == pytest.approx([0.0, 1.0, 2.0])


def test_low_snr_se_keeps_its_digits():
    # at -120 dB, 1 + SINR rounds away the SINR's low digits: log2(1 + SINR)
    # read the mean 2.4e-8 relative low
    cfg, rho = ArrayConfig(32, 0.5), 1e-12
    _, gains = one_block(1, 2, 2000)
    expected = np.mean(np.log1p(rho * cfg.n_tx * np.abs(gains) ** 2) / np.log(2.0))
    ((est,),) = run_monte_carlo(cfg, 2, [Scheme.NO_INTERFERENCE], [rho], 2000, 1)
    assert est.mean == pytest.approx(expected, rel=1e-14, abs=0.0)


def test_monte_carlo_determinism():
    cfg = ArrayConfig(8, 0.5)
    a = run_monte_carlo(cfg, 2, [Scheme.ABS], [SnrPoint.from_db(10)], 500, 99)
    b = run_monte_carlo(cfg, 2, [Scheme.ABS], [SnrPoint.from_db(10)], 500, 99)
    assert a == b


def test_monte_carlo_worker_count_invariance():
    cfg = ArrayConfig(8, 0.5)
    own = run_monte_carlo(cfg, 3, [Scheme.HBS], [100.0], 5000, 7)
    for workers in (1, 3):
        block = one_block(7, 3, 5000, workers=workers)
        assert run_monte_carlo(cfg, 3, [Scheme.HBS], [100.0], 5000, 7, block=block) == own


def test_no_interference_single_antenna_vs_quadrature():
    # E[log2(1 + |alpha|^2)] with |alpha|^2 ~ Exp(1), via 1-D quadrature
    expected, err = quad(lambda x: np.log2(1 + x) * np.exp(-x), 0, np.inf)
    assert err < 1e-9
    assert expected == pytest.approx(0.8608, abs=5e-4)
    ((est,),) = run_monte_carlo(ArrayConfig(1), 1, [Scheme.NO_INTERFERENCE],
                                [SnrPoint.from_db(0.0)], 200000, 31)
    assert abs(est.mean - expected) < 4 * est.std_error


@pytest.mark.parametrize("n_users", [2, 5])
@pytest.mark.parametrize("n_tx", [32, 128])
def test_no_interference_matches_exact_rayleigh_mean(n_tx, n_users):
    # SINR_k = a x_k with a = rho N and x_k = |g_k|^2 ~ Exp(1), and
    # E ln(1 + a x) = e^{1/a} E1(1/a) (Alouini & Goldsmith 1999)
    snrs = [SnrPoint.from_db(0.0), SnrPoint.from_db(30.0)]
    (estimates,) = run_monte_carlo(ArrayConfig(n_tx), n_users, [Scheme.NO_INTERFERENCE], snrs,
                                   20000, 2026)
    for snr, est in zip(snrs, estimates):
        a = snr.rho_linear * n_tx
        exact = np.exp(1 / a) * exp1(1 / a) / np.log(2)
        assert abs(est.mean - exact) <= 4 * est.std_error


def test_block_cross_correlation_matches_closed_form():
    # the mean |G_12|^2 of the draw stage's angles is E|a(phi1)^H a(phi2)|^2
    aods, _ = one_block(2026, 2, 50000)
    for n_tx in (16, 32, 128):
        c = _gram(aods, ArrayConfig(n_tx))[:, 0, 1] ** 2
        expected = cross_correlation_expectation(n_tx, 0.5)
        assert abs(c.mean() - expected) <= 4 * c.std(ddof=1) / np.sqrt(c.size)


def test_batch_path_matches_module_operations():
    # 32x5 HBS at seed 2026 sends trials to the extended-precision chain, and
    # the first draw of trial 39902 is singular, so it is redrawn once.  The
    # first chunk is checked through run_monte_carlo, the chunk that holds
    # trial 39902 through the gain stage.
    cfg = ArrayConfig(32, 0.5)
    rho = 316.0
    trials = 2048
    for scheme in Scheme:
        ((est,),) = run_monte_carlo(cfg, 5, [scheme], [rho], trials, 2026)
        block, _ = kernel_se(cfg, 5, scheme, rho, 2026, 0, trials)
        ref, attempts, tol = dense_se(cfg, 5, scheme, rho, 2026, 0, trials)
        assert np.all(np.abs(block - ref).max(axis=1) <= tol)
        assert est.mean == pytest.approx(ref.mean(), abs=1e-8)
        assert est.n_resampled == 0
        assert est.n_fallback > 0 if scheme is Scheme.HBS else est.n_fallback == 0
    start = 39902 // semetrics._CHUNK * semetrics._CHUNK
    block, resampled = kernel_se(cfg, 5, Scheme.HBS, rho, 2026, start, semetrics._CHUNK)
    ref, attempts, tol = dense_se(cfg, 5, Scheme.HBS, rho, 2026, start, semetrics._CHUNK)
    assert np.all(np.abs(block - ref).max(axis=1) <= tol)
    assert resampled == 1
    assert [start + t for t, a in enumerate(attempts) if a] == [39902]


def gram_angles(spacing):
    """AoDs covering the Gram kernel's hard lags, plus a few generic ones.

    Pairs: coincident phases (a and pi - a), a lag of exactly 2 pi (sin values
    +-1/(2d); pi/2 and 3pi/2 at d = 0.5), and lags within 1e-12 of 0 and of
    2 pi.
    """
    step = 1e-12 / (2 * np.pi * spacing)  # change of sin(aod) that moves zeta by 1e-12
    edge = np.arcsin(1 / (2 * spacing))
    return np.concatenate([
        [0.7, np.pi - 0.7],
        [edge, np.pi + edge],
        [0.3, np.arcsin(np.sin(0.3) + step)],
        [np.arcsin(-1 / (2 * spacing) + step)],
        np.random.default_rng(25).uniform(0, 2 * np.pi, 5),
    ])


@pytest.mark.parametrize("spacing", [0.5, 1.0])
@pytest.mark.parametrize("n_tx", [1, 2, 16, 128])
def test_gram_matches_steering_products(n_tx, spacing):
    cfg = ArrayConfig(n_tx, spacing)
    aods = gram_angles(spacing)
    steer = steering_vector(aods, cfg)
    dense = steer.conj().T @ steer
    gram = _gram(aods, cfg)
    # G_ki = e^{j(N-1)delta/2} R_ki with delta = zeta_i - zeta_k
    zeta = phase_progression(aods, cfg)
    phase = np.exp(0.5j * (n_tx - 1) * (zeta[None, :] - zeta[:, None]))
    assert np.abs(phase * gram - dense).max() <= 10 * n_tx * np.finfo(float).eps
    # R is real and exactly symmetric, with a unit diagonal
    assert gram.dtype == np.float64
    assert np.array_equal(gram, gram.T)
    assert np.array_equal(np.diagonal(gram), np.ones(len(aods)))
    # batched over leading axes
    assert np.array_equal(_gram(np.stack([aods, aods[::-1]]), cfg)[1],
                          gram[::-1, ::-1])


def extended_dense_gains(cfg, aods, gains):
    """Gains |h_k a_i|^2 from dense steering columns, accurate to float64.

    At n_tx = 65536 float64 phases m * zeta carry 1e-11 of rounding each, and
    an interference-limited stream's SE inherits the relative error of its
    small off-diagonal gains (1.6e-8 b/s/Hz on trial 1 below).  So the phases
    are formed and reduced to [-pi, pi] in extended precision, and the sums
    over the array run in ``np.clongdouble``.
    """
    two_pi = 4 * np.arccos(np.longdouble(0))
    phase = (np.arange(cfg.n_tx, dtype=np.longdouble)[:, None]
             * phase_progression(aods, cfg).astype(np.longdouble))
    phase -= two_pi * np.round(phase / two_pi)
    steer = np.exp(1j * phase.astype(float)).astype(np.clongdouble)
    steer /= np.sqrt(np.longdouble(cfg.n_tx))
    h = np.sqrt(np.longdouble(cfg.n_tx)) * gains.astype(np.clongdouble)[:, None] * steer.conj().T
    return np.abs(h @ steer).astype(float) ** 2


def test_large_array_kernel_matches_dense_reference():
    # 64 trials of the (T, n_tx, K) steering array at n_tx = 65536 would take
    # 340 MB; the Gram kernel holds only (T, K, K) arrays.  The leakage is
    # some 1e-5 of the signal here, so the reference sums the off-diagonal
    # gains alone: a row sum minus the diagonal is off by 1.4e-8 on trial 52.
    cfg = ArrayConfig(65536, 0.5)
    abs_se, abs_resampled = kernel_se(cfg, 5, Scheme.ABS, 316.0, 2026, 0, 64)
    free_se, free_resampled = kernel_se(cfg, 5, Scheme.NO_INTERFERENCE, 316.0, 2026, 0, 64)
    assert abs_resampled == free_resampled == 0
    for t in range(64):
        g2 = extended_dense_gains(cfg, *sample_path_params(child_rng(2026, 5, t), 5))
        signal, interference = split(g2)
        assert np.abs(abs_se[t] - se_from_gains(signal, interference, 316.0)).max() <= 1e-9
        assert np.abs(free_se[t] - se_from_gains(signal, 0.0, 316.0)).max() <= 1e-9


def extended_gram(aods, cfg):
    """``_gram``'s Dirichlet form evaluated in ``np.clongdouble`` from the
    float64 phases."""
    n_tx = cfg.n_tx
    zeta = phase_progression(aods, cfg).astype(np.longdouble)
    delta = zeta[..., None, :] - zeta[..., :, None]
    den = n_tx * np.sin(delta / 2)
    coincident = den == 0
    ratio = np.sin(n_tx * delta / 2) / np.where(coincident, 1, den)
    phase = (n_tx - 1) * delta / 2
    return np.where(coincident, 1, (np.cos(phase) + 1j * np.sin(phase)) * ratio)


def gauss_jordan_inverse(a):
    """Inverses of a (T, K, K) stack by Gauss-Jordan elimination with partial
    pivoting, in the dtype of ``a``."""
    count, k, _ = a.shape
    aug = np.concatenate([a, np.broadcast_to(np.eye(k, dtype=a.dtype), a.shape)], axis=2)
    rows = np.arange(count)
    for col in range(k):
        pivot = col + np.abs(aug[:, col:, col]).argmax(axis=1)
        aug[rows, col], aug[rows, pivot] = aug[rows, pivot], aug[rows, col]
        aug[:, col] /= aug[:, col, col, None]
        factor = aug[:, :, col, None].copy()
        factor[:, col] = 0.0
        aug -= factor * aug[:, None, col]
    return aug[:, :, k:]


def test_hbs_kernel_matches_extended_gram_reference():
    # Per-trial precision contract of the HBS gain stage: SE at rho = 1000
    # within 1e-9 of log2(1 + rho N |g_k|^2 / (G^{-1})_kk) from a long-double
    # Gram inverse.  Declared exceptions: the trials with cond(G) > 1e10,
    # where eps_ld * cond leaves the reference itself near 1e-9.  Among them
    # are trials 16687 (cond 9e10) and 17472 (cond 2e14), which miss 1e-9
    # through the extended-precision chain by 3.9e-9 and 2.3e-6.  No trial of
    # these is redrawn: seed 2026's first singular draw at 32x5 is trial 39902.
    cfg = ArrayConfig(32, 0.5)
    trials, rho = 20000, 1000.0
    aods, gains = one_block(2026, 5, trials)
    se, resampled = kernel_se(cfg, 5, Scheme.HBS, rho, 2026, 0, trials, block=(aods, gains))
    gram = extended_gram(aods, cfg)
    inv_diag = np.einsum("tkk->tk", gauss_jordan_inverse(gram)).real
    ref = np.log2(1 + rho * cfg.n_tx * np.abs(gains.astype(np.clongdouble)) ** 2 / inv_diag)
    declared = np.nonzero(np.linalg.cond(gram.astype(complex)) > 1e10)[0].tolist()
    assert declared == [1362, 4702, 7197, 8876, 13562, 14207, 14792, 16687, 17472]
    assert resampled == 0
    err = np.abs(se - ref.astype(float)).max(axis=1)
    err[declared] = 0.0
    assert err.max() <= 1e-9, f"trial {np.argmax(err)} off by {err.max():.3g}"


def test_singular_trial_flags_only_itself():
    # Trial 5's two users coincide, so its real Gram matrix R is exactly
    # singular: the chunk's batched elimination meets a zero pivot in that
    # trial alone.  Only that trial goes to the extended-precision chain,
    # which redraws it; every other trial keeps the signal and interference
    # the batched inverse gives it without trial 5's change.
    cfg = ArrayConfig(16, 0.5)
    clean = one_block(2026, 2, 64)
    ((*clean_gains, _, clean_flagged),) = _gain_chunk(*clean, cfg, [Scheme.HBS], 2026, 0)
    assert clean_flagged == 0
    aods = clean[0].copy()
    aods[5, 1] = aods[5, 0]
    finite = np.isfinite(_gram_inverse(_gram(aods, cfg))).all(axis=(1, 2))
    assert finite.tolist() == [t != 5 for t in range(64)]
    ((*gains, resampled, flagged),) = _gain_chunk(aods, clean[1], cfg, [Scheme.HBS], 2026, 0)
    assert (resampled, flagged) == (1, 1)
    others = np.arange(64) != 5
    for got, want in zip(gains, clean_gains):
        assert got[others].tobytes() == want[others].tobytes()


def test_fallback_count_matches_chain_calls():
    # 32x5 HBS at seed 2026 flags trials on the condition bound of G; each
    # ends in one hbs_beamformer_set call that returns.
    cfg = ArrayConfig(32, 0.5)
    returned = []

    def counted(*args, chain=semetrics.hbs_beamformer_set):
        f = chain(*args)
        returned.append(f)
        return f

    with mock.patch.object(semetrics, "hbs_beamformer_set", counted):
        ((est,),) = run_monte_carlo(cfg, 5, [Scheme.HBS], [316.0], 2048, 2026)
    assert est.n_fallback == len(returned) > 0
    for scheme in (Scheme.ABS, Scheme.NO_INTERFERENCE):
        assert run_monte_carlo(cfg, 5, [scheme], [316.0], 2048, 2026)[0][0].n_fallback == 0


@pytest.mark.parametrize("n_tx, n_fallback", [(32, 27), (128, 7)])
def test_fallback_count_at_seed_2026(n_tx, n_fallback):
    # the unpivoted elimination flags the trials a pivoted LAPACK solve of R
    # flagged: 27 and 7 of 4096 at seed 2026
    ((est,),) = run_monte_carlo(ArrayConfig(n_tx, 0.5), 5, [Scheme.HBS], [1000.0], 4096, 2026)
    assert (est.n_fallback, est.n_resampled) == (n_fallback, 0)


def test_chunk_size_invariance(monkeypatch):
    cfg = ArrayConfig(32, 0.5)
    default = run_monte_carlo(cfg, 5, [Scheme.HBS], [316.0], 2048, 2026)
    monkeypatch.setattr(semetrics, "_CHUNK", 333)
    assert run_monte_carlo(cfg, 5, [Scheme.HBS], [316.0], 2048, 2026) == default


@pytest.mark.parametrize("workers", [1, 2])
def test_snr_grid_equals_one_point_calls(workers):
    # One simulation of every scheme reduced at every point of an unsorted
    # grid with a repeated point equals a simulation per scheme and point.
    # 32x5 at seed 2026 with 40000 trials covers the HBS fallback and trial
    # 39902's redraw.
    cfg = ArrayConfig(32, 0.5)
    trials = 40000
    assert trials > semetrics._CHUNK
    snrs = [SnrPoint.from_db(30.0), 0.5, SnrPoint.from_db(-10.0), SnrPoint.from_db(30.0)]
    grid = run_monte_carlo(cfg, 5, list(Scheme), snrs, trials, 2026,
                           block=one_block(2026, 5, trials, workers=workers))
    assert len(grid) == len(Scheme)
    for scheme, estimates in zip(Scheme, grid):
        assert estimates == tuple(run_monte_carlo(cfg, 5, [scheme], [snr], trials, 2026)[0][0]
                                  for snr in snrs)
        assert estimates[0].n_resampled == (1 if scheme is Scheme.HBS else 0)


@pytest.mark.parametrize("n_users", range(1, 7))
def test_draw_block_is_stacked_per_trial_draws(n_users):
    # A block is trials [0, count); the pool draws each chunk [start, start +
    # count) as one generator call.  One call spans a gain-stage chunk
    # boundary; one block and one call hold more than a chunk.
    for seed, start, count in ((2026, 0, 7), (0, semetrics._CHUNK - 3, 6), (7, 10**6, 3),
                               (2**32 - 1, 1, semetrics._CHUNK + 5),
                               (2**32 - 1, 0, semetrics._CHUNK + 5)):
        aods, gains = (one_block(seed, n_users, count) if start == 0 else
                       sample_path_params(child_rng(seed, n_users, start), n_users, count))
        ref_aods, ref_gains = zip(*(sample_path_params(child_rng(seed, n_users, t), n_users)
                                    for t in range(start, start + count)))
        assert aods.tobytes() == np.stack(ref_aods).tobytes()
        assert gains.tobytes() == np.stack(ref_gains).tobytes()
        assert aods.shape == gains.shape == (count, n_users)


def test_draw_block_pooled_equals_in_process():
    # one pool draws the chunks of every user count's block
    count = 2 * semetrics._CHUNK + 5
    pooled = draw_blocks(11, [4, 2], count, workers=2)
    assert list(pooled) == [4, 2]
    for n_users, block in pooled.items():
        single = sample_path_params(child_rng(11, n_users, 0), n_users, count)
        for a, b in zip(single, block):
            assert a.tobytes() == b.tobytes()
            assert not b.flags.writeable


def test_run_monte_carlo_rejects_block_of_other_shape():
    block = one_block(5, 2, 10)
    with pytest.raises(ValueError, match="block"):
        run_monte_carlo(ArrayConfig(8), 2, [Scheme.ABS], [1.0], 11, 5, block=block)
    with pytest.raises(ValueError, match="block"):
        run_monte_carlo(ArrayConfig(8), 3, [Scheme.ABS], [1.0], 10, 5, block=block)


def test_draw_block_is_read_only():
    aods, gains = one_block(2026, 3, 4)
    for array in (aods, gains):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0] = 0.0


def test_empty_snr_grid_rejected():
    with pytest.raises(ValueError, match="SNR"):
        run_monte_carlo(ArrayConfig(4), 2, [Scheme.ABS], [], 10, 0)


def test_monotone_in_snr_for_interference_free_schemes():
    cfg = ArrayConfig(8, 0.5)
    rng = np.random.default_rng(22)
    angles = rng.uniform(0, 2 * np.pi, 3)
    gains = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) / np.sqrt(2)
    h = np.stack([los_channel(PathParams(g, a), cfg) for g, a in zip(gains, angles)])
    f = hbs_beamformer_set(h, angles, cfg)
    prev = -1.0
    for rho_db in np.arange(-10, 41, 1.0):
        se = se_from_gains(*split(np.abs(h @ f) ** 2),
                           SnrPoint.from_db(rho_db).rho_linear)[0]
        assert se >= prev
        prev = se


def test_abs_high_snr_ceiling_per_realization():
    cfg = ArrayConfig(16, 0.5)
    rng = np.random.default_rng(23)
    angles = rng.uniform(0, 2 * np.pi, 3)
    gains = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) / np.sqrt(2)
    h = np.stack([los_channel(PathParams(g, a), cfg) for g, a in zip(gains, angles)])
    f = steering_vector(angles, cfg)
    g2 = np.abs(h @ f) ** 2
    ceiling = g2[0, 0] / (g2[0, 1] + g2[0, 2])
    high_snr = sinr(se_from_gains(*split(g2), 1e9)[0])
    assert abs(high_snr - ceiling) / ceiling < 1e-6


def test_hbs_equals_own_zero_interference_se():
    # ZF exactness: the interference term contributes nothing measurable
    cfg = ArrayConfig(32, 0.5)
    rng = np.random.default_rng(24)
    for _ in range(20):
        angles = rng.uniform(0, 2 * np.pi, 4)
        gains = (rng.standard_normal(4) + 1j * rng.standard_normal(4)) / np.sqrt(2)
        h = np.stack([los_channel(PathParams(g, a), cfg)
                      for g, a in zip(gains, angles)])
        f = hbs_beamformer_set(h, angles, cfg)
        g2 = np.abs(h @ f) ** 2
        for rho_db in (0.0, 30.0, 60.0):
            rho = SnrPoint.from_db(rho_db)
            full = se_from_gains(*split(g2), rho.rho_linear)[0]
            no_int = np.log2(1 + rho.rho_linear * abs(h[0] @ f[:, 0]) ** 2)
            assert abs(full - no_int) < 1e-6


def test_stderr_shrinks_with_trials():
    cfg = ArrayConfig(8, 0.5)
    ((a,),) = run_monte_carlo(cfg, 2, [Scheme.ABS], [100.0], 4000, 50)
    ((b,),) = run_monte_carlo(cfg, 2, [Scheme.ABS], [100.0], 8000, 51)
    ratio = b.std_error / a.std_error
    assert 0.8 * (1 / np.sqrt(2)) < ratio < 1.2 * (1 / np.sqrt(2))


def test_estimate_fields():
    ((est,),) = run_monte_carlo(ArrayConfig(4), 2, [Scheme.ABS], [10.0], 300, 1)
    assert isinstance(est, MonteCarloEstimate)
    assert est.n_trials == 300
    assert est.n_resampled == 0
    assert est.std_error > 0


def test_invalid_parameters():
    with pytest.raises(ValueError):
        run_monte_carlo(ArrayConfig(4), 0, [Scheme.ABS], [1.0], 10, 0)
    with pytest.raises(ValueError):
        run_monte_carlo(ArrayConfig(4), 2, [Scheme.ABS], [1.0], 0, 0)
    for schemes in ([], [Scheme.ABS, Scheme.HBS, Scheme.ABS], ["HBS", Scheme.HBS]):
        with pytest.raises(ValueError, match="scheme"):
            run_monte_carlo(ArrayConfig(4), 2, schemes, [1.0], 10, 0)


@pytest.mark.parametrize("rho", [float("nan"), -1.0, 0.0, float("inf")])
def test_raw_rho_validated(rho):
    with pytest.raises(ValueError):
        run_monte_carlo(ArrayConfig(4), 2, [Scheme.ABS], [rho], 10, 0)


def test_hbs_more_users_than_antennas_rejected():
    with pytest.raises(ValueError, match=r"3 users on 2 antennas"):
        run_monte_carlo(ArrayConfig(2), 3, [Scheme.HBS], [10.0], 2, 0)
    # the analog schemes stay defined for K > n_tx
    for scheme in (Scheme.ABS, Scheme.NO_INTERFERENCE):
        assert np.isfinite(run_monte_carlo(ArrayConfig(2), 3, [scheme], [10.0], 20, 0)[0][0].mean)


# Property tests: small trial counts over random geometry, seeds and SNRs.
# derandomize keeps the examples, and so the suite, the same on every run.
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True)


@st.composite
def cells(draw):
    n_tx = draw(st.integers(1, 64))
    n_users = draw(st.integers(1, min(n_tx, 5)))
    seed = draw(st.integers(0, 2**32 - 1))
    start = draw(st.integers(0, 10**6))
    count = draw(st.integers(1, 6))
    return ArrayConfig(n_tx, 0.5), n_users, seed, start, count


RHOS = st.floats(1e-2, 1e5)


@PROPERTY
@given(cells(), st.sampled_from(list(Scheme)), RHOS)
def test_kernel_matches_dense_reference(cell, scheme, rho):
    cfg, n_users, seed, start, count = cell
    block, resampled = kernel_se(cfg, n_users, scheme, rho, seed, start, count)
    ref, attempts, tol = dense_se(cfg, n_users, scheme, rho, seed, start, count)
    assert resampled == sum(attempts)
    assert np.all(np.abs(block - ref).max(axis=1) <= tol)


@PROPERTY
@given(cells(), st.sampled_from(list(Scheme)), RHOS, st.randoms(use_true_random=False))
def test_kernel_equivariant_under_user_permutation(cell, scheme, rho, random):
    cfg, n_users, seed, start, count = cell
    perm = np.array(random.sample(range(n_users), n_users))
    block, _ = kernel_se(cfg, n_users, scheme, rho, seed, start, count)

    def permuted_draw(rng, n_paths, draw=sample_path_params):
        aods, gains = draw(rng, n_paths)
        return aods[perm], gains[perm]

    # first attempts come from the block, redraws from sample_path_params
    aods, gains = sample_path_params(child_rng(seed, n_users, start), n_users, count)
    with mock.patch.object(semetrics, "sample_path_params", permuted_draw):
        permuted, _ = kernel_se(cfg, n_users, scheme, rho, seed, start, count,
                                block=(aods[:, perm], gains[:, perm]))
    # both sides carry the float64 forward error that dense_se allows
    _, _, tol = dense_se(cfg, n_users, scheme, rho, seed, start, count)
    assert np.all(np.abs(permuted - block[:, perm]).max(axis=1) <= 2 * tol)


@PROPERTY
@given(cells(), RHOS)
def test_abs_at_most_no_interference_per_stream(cell, rho):
    cfg, n_users, seed, start, count = cell
    abs_se, _ = kernel_se(cfg, n_users, Scheme.ABS, rho, seed, start, count)
    free_se, _ = kernel_se(cfg, n_users, Scheme.NO_INTERFERENCE, rho, seed, start, count)
    assert np.all(abs_se <= free_se + 1e-12)


@PROPERTY
@given(cells(), RHOS, RHOS)
def test_hbs_monotone_in_rho(cell, rho_a, rho_b):
    cfg, n_users, seed, start, count = cell
    low, high = sorted((rho_a, rho_b))
    se_low, _ = kernel_se(cfg, n_users, Scheme.HBS, low, seed, start, count)
    se_high, _ = kernel_se(cfg, n_users, Scheme.HBS, high, seed, start, count)
    assert np.all(se_low <= se_high + 1e-12)
