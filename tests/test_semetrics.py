import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from itertools import permutations
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import exp1

import beamsteer
from beamsteer import channel, semetrics
from beamsteer.arrays import ArrayConfig, phase_progression, steering_vector
from beamsteer.beamforming import (DegeneratePrecoder, SingularEquivalentChannel,
                                   hbs_beamformer_set)
from beamsteer.bounds import cross_correlation_expectation
from beamsteer.channel import child_rng, sample_path_params
from beamsteer.semetrics import (MonteCarloEstimate, Scheme, SnrPoint, _draw_chunk, _gain_chunk,
                                 _gram, _gram_inverse, run_monte_carlo, se_from_gains)

from los_reference import PathParams, los_channel
from single_cell import run_cell


def dense_trial_se(cfg, n_users, scheme, rho, seed, trial):
    """One trial rebuilt from the module operations, one user at a time.

    Draws from ``child_rng``, forms each LoS row with ``los_channel`` from the
    gain sqrt(x) of zero phase, takes
    the steering columns (ABS, NoInterference) or ``hbs_beamformer_set`` (HBS,
    redrawing from the next attempt's stream while it reports a singular
    draw) and evaluates the SINR from ``h @ F`` directly.
    Returns (per-stream SE, number of redraws).
    """
    for attempt in range(1000):
        aods, x = sample_path_params(child_rng(seed, n_users, trial, attempt), n_users)
        h = np.stack([los_channel(PathParams(g, a), cfg) for g, a in zip(np.sqrt(x), aods)])
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
    """The rho-free kernel's (K, count) signal and interference reduced to SE
    at ``rho``, as a (count, K) block.

    The gain stage runs on ``block``, by default the draws of trials
    [start, start + count), one generator call as a run's chunk makes it.
    """
    aods, x = block or sample_path_params(child_rng(seed, n_users, start), n_users, count)
    ((signal, interference, resampled, _),) = _gain_chunk(aods, x, cfg, [Scheme(scheme)],
                                                          seed, start)
    return se_from_gains(signal, interference, rho).T, resampled


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
    # read the mean 4.5e-8 relative low
    cfg, rho = ArrayConfig(32, 0.5), 1e-12
    _, x = _draw_chunk(1, 2, 0, 2000)
    expected = np.mean(np.log1p(rho * cfg.n_tx * x) / np.log(2.0))
    ((est,),) = run_cell(cfg, 2, [Scheme.NO_INTERFERENCE], [rho], 2000, 1)
    assert est.mean == pytest.approx(expected, rel=1e-14, abs=0.0)


def test_monte_carlo_determinism():
    cfg = ArrayConfig(8, 0.5)
    a = run_cell(cfg, 2, [Scheme.ABS], [SnrPoint.from_db(10)], 500, 99)
    b = run_cell(cfg, 2, [Scheme.ABS], [SnrPoint.from_db(10)], 500, 99)
    assert a == b


def test_monte_carlo_worker_count_invariance():
    cfg = ArrayConfig(8, 0.5)
    own = run_cell(cfg, 3, [Scheme.HBS], [100.0], 5000, 7)
    for workers in (1, 3):
        assert run_cell(cfg, 3, [Scheme.HBS], [100.0], 5000, 7, workers) == own


def test_no_interference_single_antenna_vs_quadrature():
    # E[log2(1 + |alpha|^2)] with |alpha|^2 ~ Exp(1), via 1-D quadrature
    expected, err = quad(lambda x: np.log2(1 + x) * np.exp(-x), 0, np.inf)
    assert err < 1e-9
    assert expected == pytest.approx(0.8608, abs=5e-4)
    ((est,),) = run_cell(ArrayConfig(1), 1, [Scheme.NO_INTERFERENCE],
                         [SnrPoint.from_db(0.0)], 200000, 31)
    assert abs(est.mean - expected) < 4 * est.std_error


@pytest.mark.parametrize("n_users", [2, 5])
@pytest.mark.parametrize("n_tx", [32, 128])
def test_no_interference_matches_exact_rayleigh_mean(n_tx, n_users):
    # SINR_k = a x_k with a = rho N and x_k = |g_k|^2 ~ Exp(1), and
    # E ln(1 + a x) = e^{1/a} E1(1/a) (Alouini & Goldsmith 1999)
    snrs = [SnrPoint.from_db(0.0), SnrPoint.from_db(30.0)]
    (estimates,) = run_cell(ArrayConfig(n_tx), n_users, [Scheme.NO_INTERFERENCE], snrs,
                            20000, 2026)
    for snr, est in zip(snrs, estimates):
        a = snr.rho_linear * n_tx
        exact = np.exp(1 / a) * exp1(1 / a) / np.log(2)
        assert abs(est.mean - exact) <= 4 * est.std_error


def test_block_cross_correlation_matches_closed_form():
    # the mean |G_12|^2 of the draw stage's angles is E|a(phi1)^H a(phi2)|^2
    aods, _ = _draw_chunk(2026, 2, 0, 50000)
    for n_tx in (16, 32, 128):
        c = _gram(aods, ArrayConfig(n_tx))[0, 1] ** 2
        assert c.shape == (50000,)
        expected = cross_correlation_expectation(n_tx, 0.5)
        assert abs(c.mean() - expected) <= 4 * c.std(ddof=1) / np.sqrt(c.size)


def test_batch_path_matches_module_operations():
    # 32x5 HBS at seed 2026 sends trials to the extended-precision chain, and
    # the first draws of trials 29735 and 29925 are singular, so each is
    # redrawn once.  The first chunk is checked through run_monte_carlo, the
    # chunk that holds both through the gain stage.
    cfg = ArrayConfig(32, 0.5)
    rho = 316.0
    trials = 2048
    for scheme in Scheme:
        ((est,),) = run_cell(cfg, 5, [scheme], [rho], trials, 2026)
        block, _ = kernel_se(cfg, 5, scheme, rho, 2026, 0, trials)
        ref, attempts, tol = dense_se(cfg, 5, scheme, rho, 2026, 0, trials)
        assert np.all(np.abs(block - ref).max(axis=1) <= tol)
        assert est.mean == pytest.approx(ref.mean(), abs=1e-8)
        assert est.n_resampled == 0
        assert est.n_fallback > 0 if scheme is Scheme.HBS else est.n_fallback == 0
    start = 29735 // semetrics._CHUNK * semetrics._CHUNK
    block, resampled = kernel_se(cfg, 5, Scheme.HBS, rho, 2026, start, semetrics._CHUNK)
    ref, attempts, tol = dense_se(cfg, 5, Scheme.HBS, rho, 2026, start, semetrics._CHUNK)
    assert np.all(np.abs(block - ref).max(axis=1) <= tol)
    assert resampled == 2
    assert [start + t for t, a in enumerate(attempts) if a] == [29735, 29925]


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
    # batched over (T, K) angles, trials last
    assert np.array_equal(_gram(np.stack([aods, aods[::-1]]), cfg)[..., 1],
                          gram[::-1, ::-1])


def lag_block_gram(aods, config):
    """``_gram``'s float operations on (lags, T) arrays: all lags i > k at once,
    then scattered into R and its mirror."""
    zeta = phase_progression(aods.T, config)
    k, i = np.triu_indices(len(zeta), 1)
    den = zeta[i] - zeta[k]
    ratio = np.sin(np.multiply(config.n_tx, den) / 2.0)
    den = np.sin(den / 2.0) * config.n_tx
    coincident = den == 0.0
    ratio /= np.where(coincident, 1.0, den)
    ratio[coincident] = 1.0
    r = np.ones((len(zeta),) + zeta.shape)
    r[k, i] = r[i, k] = ratio
    return r


def row_block_inverse(r):
    """``_gram_inverse``'s float operations on whole (K, T) rows: Gauss-Jordan
    with the pivot column zeroed, then each other row less its multiple of the
    pivot row."""
    r = r.copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(len(r)):
            col = r[:, k].copy()
            r[:, k] = 0.0
            r[k, k] = 1.0
            r[k] /= col[k]
            for j in range(len(r)):
                if j != k:
                    r[j] -= col[j] * r[k]
    return r


@pytest.mark.parametrize("spacing", [0.5, 1.0, 2.7])
@pytest.mark.parametrize("n_tx", [1, 4, 32, 128, 65536])
def test_gram_kernel_bytes_match_lag_block_reference(n_tx, spacing):
    # Building R lag by lag inside R, and inverting it entry row by entry row,
    # keep the float operations of the block forms, so the bytes are equal;
    # the trials draw users from the hard lags of ``gram_angles``: coincident,
    # mirrored, 2 pi apart and 1e-12 from either, with exactly singular R.
    cfg = ArrayConfig(n_tx, spacing)
    pool = gram_angles(spacing)
    rng = np.random.default_rng(n_tx)
    for n_users in range(1, 9):
        aods = pool[rng.integers(len(pool), size=(64, n_users))]
        gram = _gram(aods, cfg)
        assert gram.tobytes() == lag_block_gram(aods, cfg).tobytes()
        assert _gram(aods[0], cfg).tobytes() == lag_block_gram(aods[0], cfg).tobytes()
        assert _gram_inverse(gram.copy()).tobytes() == row_block_inverse(gram).tobytes()


def extended_dense_gains(cfg, aods, x):
    """Gains |h_k a_i|^2 from dense steering columns, accurate to float64.

    At n_tx = 65536 float64 phases m * zeta carry 1e-11 of rounding each, and
    an interference-limited stream's SE inherits the relative error of its
    small off-diagonal gains (1.7e-10 b/s/Hz on trial 45 below from float64
    steering columns, against 3.6e-11 for the kernel's float64 R).  So the
    phases are formed and reduced to [-pi, pi] in extended precision, and the
    sums over the array run in ``np.clongdouble``.  Each user's gain is
    sqrt(x) with zero phase.
    """
    two_pi = 4 * np.arccos(np.longdouble(0))
    phase = (np.arange(cfg.n_tx, dtype=np.longdouble)[:, None]
             * phase_progression(aods, cfg).astype(np.longdouble))
    phase -= two_pi * np.round(phase / two_pi)
    steer = np.exp(1j * phase.astype(float)).astype(np.clongdouble)
    steer /= np.sqrt(np.longdouble(cfg.n_tx))
    h = np.sqrt(cfg.n_tx * x.astype(np.longdouble))[:, None] * steer.conj().T
    return np.abs(h @ steer).astype(float) ** 2


def test_large_array_kernel_matches_dense_reference():
    # 64 trials of the (T, n_tx, K) steering array at n_tx = 65536 would take
    # 340 MB; the Gram kernel holds only (T, K, K) arrays.  The leakage is
    # some 1e-5 of the signal here, so the reference sums the off-diagonal
    # gains alone: a row sum minus the diagonal is off by 1.4e-8 on trial 43.
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
    # are trials 556 (cond 8e10), 8482 (4e10), 13676 (5e11) and 18990 (2e13),
    # which miss 1e-9 through the extended-precision chain by 9.4e-9, 4.3e-9,
    # 5.1e-8 and 4.1e-7.  No trial of these is redrawn: seed 2026's first
    # singular draw at 32x5 is trial 29735.
    cfg = ArrayConfig(32, 0.5)
    trials, rho = 20000, 1000.0
    aods, x = _draw_chunk(2026, 5, 0, trials)
    se, resampled = kernel_se(cfg, 5, Scheme.HBS, rho, 2026, 0, trials, block=(aods, x))
    gram = extended_gram(aods, cfg)
    inv_diag = np.einsum("tkk->tk", gauss_jordan_inverse(gram)).real
    ref = np.log2(1 + rho * cfg.n_tx * x.astype(np.longdouble) / inv_diag)
    declared = np.nonzero(np.linalg.cond(gram.astype(complex)) > 1e10)[0].tolist()
    assert declared == [556, 2001, 2148, 3656, 4397, 8482, 11283, 12683, 12807, 13676, 18990,
                        19066, 19149]
    assert resampled == 0
    err = np.abs(se - ref.astype(float)).max(axis=1)
    err[declared] = 0.0
    assert err.max() <= 1e-9, f"trial {np.argmax(err)} off by {err.max():.3g}"


def test_gram_inverse_residual_within_condition_bound():
    # R R^-1 - I of every trial the flag keeps is within 100 eps64 times the
    # Frobenius condition bound; 32x5 at seed 2026 flags some of the chunk.
    cfg = ArrayConfig(32, 0.5)
    aods, x = _draw_chunk(2026, 5, 0, 2048)
    gram = _gram(aods, cfg)
    inv = _gram_inverse(gram.copy())
    eps = np.finfo(float).eps
    cond = np.sqrt((gram ** 2).sum(axis=(0, 1)) * (inv ** 2).sum(axis=(0, 1)))
    kept = (eps * cond <= semetrics._FORWARD_TOL) & (np.diagonal(inv) > 0).all(axis=1)
    ((*_, flagged),) = _gain_chunk(aods, x, cfg, [Scheme.HBS], 2026, 0)
    assert 0 < flagged == np.count_nonzero(~kept)
    residual = np.einsum("ijt,jkt->ikt", gram, inv) - np.eye(5)[..., None]
    assert (np.abs(residual).max(axis=(0, 1))[kept] <= 100 * eps * cond[kept]).all()


def test_singular_trial_flags_only_itself():
    # Trial 5's two users coincide, so its real Gram matrix R is exactly
    # singular: the chunk's batched elimination meets a zero pivot in that
    # trial alone.  Only that trial goes to the extended-precision chain,
    # which redraws it; every other trial keeps the signal the batched
    # inverse gives it without trial 5's change, and the interference of
    # every HBS trial is the scalar zero.
    cfg = ArrayConfig(16, 0.5)
    clean = _draw_chunk(2026, 2, 0, 64)
    ((clean_signal, clean_interference, _, clean_flagged),) = _gain_chunk(*clean, cfg,
                                                                          [Scheme.HBS], 2026, 0)
    assert clean_flagged == 0 and clean_interference == 0.0
    aods = clean[0].copy()
    aods[5, 1] = aods[5, 0]
    inv = _gram_inverse(_gram(aods, cfg))
    assert inv.shape == (2, 2, 64)
    assert not np.isfinite(inv[..., 5]).any()
    assert np.isfinite(inv).all(axis=(0, 1)).tolist() == [t != 5 for t in range(64)]
    ((signal, interference, resampled, flagged),) = _gain_chunk(aods, clean[1], cfg,
                                                                [Scheme.HBS], 2026, 0)
    assert (resampled, flagged) == (1, 1)
    assert interference == 0.0
    others = np.arange(64) != 5
    assert signal[:, others].tobytes() == clean_signal[:, others].tobytes()


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
        ((est,),) = run_cell(cfg, 5, [Scheme.HBS], [316.0], 2048, 2026)
    assert est.n_fallback == len(returned) > 0
    for scheme in (Scheme.ABS, Scheme.NO_INTERFERENCE):
        assert run_cell(cfg, 5, [scheme], [316.0], 2048, 2026)[0][0].n_fallback == 0


@pytest.mark.parametrize("n_tx, n_fallback", [(32, 27), (128, 7)])
def test_fallback_count_at_seed_2026(n_tx, n_fallback):
    # the unpivoted elimination flags the trials a pivoted LAPACK solve of R
    # flagged: 27 and 7 of 4096 at seed 2026
    ((est,),) = run_cell(ArrayConfig(n_tx, 0.5), 5, [Scheme.HBS], [1000.0], 4096, 2026)
    assert (est.n_fallback, est.n_resampled) == (n_fallback, 0)


def test_flagged_hbs_trial_reports_zero_interference():
    # HBS has one model on both paths: a trial the condition bound sends to
    # the extended-precision chain takes the chain's signal |h_k . f_k|^2
    # alone, the K per-stream inner products, and its interference is the zero
    # every other HBS trial gets, not the chain's float64 rounding leakage.
    # The diagonal of the full product h f agrees to rounding.  32x5 at seed
    # 2026 flags 27 of 4096.
    cfg = ArrayConfig(32, 0.5)
    aods, x = _draw_chunk(2026, 5, 0, 4096)
    ((signal, interference, resampled, flagged),) = _gain_chunk(aods, x, cfg,
                                                                [Scheme.HBS], 2026, 0)
    assert (flagged, resampled) == (27, 0)
    assert np.shape(interference) == () and interference == 0.0
    gram = _gram(aods, cfg)
    inv = _gram_inverse(gram.copy())
    cond = np.sqrt((gram ** 2).sum(axis=(0, 1)) * (inv ** 2).sum(axis=(0, 1)))
    rows = np.nonzero(np.finfo(float).eps * cond > semetrics._FORWARD_TOL)[0]
    assert len(rows) == 27
    for t in rows:
        h = semetrics._los(aods[t], x[t], cfg)
        f = hbs_beamformer_set(h, aods[t], cfg)
        # each h_k . f_k summed in order of the antennas
        chain = np.abs([sum(h[k, n] * f[n, k] for n in range(cfg.n_tx)) for k in range(5)]) ** 2
        assert signal[:, t].tobytes() == chain.tobytes()
        # relative to N x_k = |h_k|^2 |f_k|^2, the scale of both products'
        # rounding: a flagged signal N x_k / (R^-1)_kk is far below it
        dense = np.diagonal(np.abs(h @ f) ** 2)
        assert (np.abs(signal[:, t] - dense) <= 1e-14 * cfg.n_tx * x[t]).all()


def traced_peak(call):
    """Peak memory traced while ``call()`` runs, result included, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_holds_each_gain_once():
    # A chunk's draws, gains and per-trial means are dropped once it is folded
    # into the running sums, so a run's traced peak does not grow with its
    # trial count: 16 chunks of 32x5 HBS peak less than 1 byte per trial and
    # stream above one chunk (the signal and an SE buffer held per trial took
    # 16 bytes).
    cfg = ArrayConfig(32, 0.5)

    def run_peak(trials):
        return traced_peak(lambda: run_cell(cfg, 5, [Scheme.HBS], [1000.0], trials, 2026))

    one, many = run_peak(semetrics._CHUNK), run_peak(16 * semetrics._CHUNK)
    assert (many - one) / (16 * semetrics._CHUNK * 5) < 1


def test_user_count_gains_dropped_once_reduced(monkeypatch):
    # No gains outlive their chunk: every chunk's signals are gone before the
    # next chunk is drawn, of its own user count or of the next, and once the
    # run returns.
    cfg = ArrayConfig(8, 0.5)
    signals, alive = [], []  # weak references to every signal; live ones per draw

    def gain_chunk(aods, x, config, schemes, seed, start, run=semetrics._gain_chunk):
        out = run(aods, x, config, schemes, seed, start)
        signals.extend(weakref.ref(signal) for signal, *_ in out)
        return out

    def draw(seed, n_users, start, count, draw=semetrics._draw_chunk):
        alive.append(sum(ref() is not None for ref in signals))
        return draw(seed, n_users, start, count)

    monkeypatch.setattr(semetrics, "_gain_chunk", gain_chunk)
    monkeypatch.setattr(semetrics, "_draw_chunk", draw)
    cells = [(2, cfg, (Scheme.ABS,), [1.0]), (5, cfg, (Scheme.ABS,), [1.0])]
    run_monte_carlo(cells, 2 * semetrics._CHUNK, 3)
    assert len(signals) == 4 and alive == [0, 0, 0, 0]
    assert not any(ref() for ref in signals)


def test_philox_works_in_fixed_buffers():
    # A round holds four (2, steps) word arrays, 64 bytes per step, and the
    # (steps, 4) uniforms are filled after two of them are released, with no
    # cast buffer.
    steps = 8192
    assert traced_peak(lambda: channel._philox((2026, 0, 0), steps)) / steps < 72


def test_gain_chunk_works_in_fixed_buffers():
    # ABS and HBS on one 128x5 chunk: R (40 bytes per trial and stream) is
    # built before the power, summed for ABS through one row buffer and then
    # inverted in place for HBS; no squared or copied R is made.  The gains are
    # trials last, as R is, so neither the ABS product nor the HBS division
    # mixes memory layouts and needs an iterator buffer: ABS alone peaks in
    # ``_gram`` (56 bytes), and ABS with HBS at the R, power, ABS interference
    # and HBS signal it holds (64) beside a flagged trial's chain.
    cfg = ArrayConfig(128, 0.5)
    aods, x = _draw_chunk(2026, 5, 0, semetrics._CHUNK)
    for schemes, bound in (([Scheme.ABS], 60), ([Scheme.ABS, Scheme.HBS], 80)):
        peak = traced_peak(lambda: _gain_chunk(aods, x, cfg, schemes, 2026, 0))
        assert peak / (semetrics._CHUNK * 5) < bound


def test_gram_builds_r_in_place():
    # R (40 bytes per trial and stream at K = 5) is the only (K, K, T) array:
    # each lag's ratio and denominator are computed in R's own rows, beside
    # the (K, T) phases and their sines (8 bytes each); no (lags, T) array of
    # sines is made.
    cfg = ArrayConfig(128, 0.5)
    aods, _ = _draw_chunk(2026, 5, 0, semetrics._CHUNK)
    assert traced_peak(lambda: _gram(aods, cfg)) / (semetrics._CHUNK * 5) < 60


def test_gram_inverse_eliminates_through_row_buffers():
    # The elimination works on R in place through one (T,) buffer, 1.6 bytes
    # per trial and stream at K = 5, with no (K, T) copy of a pivot column.
    cfg = ArrayConfig(128, 0.5)
    gram = _gram(_draw_chunk(2026, 5, 0, semetrics._CHUNK)[0], cfg)
    assert traced_peak(lambda: _gram_inverse(gram)) / (semetrics._CHUNK * 5) < 4


def test_reduction_holds_no_trial_buffer():
    # Each chunk is reduced where it is simulated, to a row of per-trial means
    # per point, and folded into running sums of one entry per point: every scheme
    # of a 32x5 cell at nine points over 16 chunks peaks less than 1 byte per
    # trial and stream above one chunk (the (trials, K) SE buffer took 8).
    cfg = ArrayConfig(32, 0.5)
    snrs = [SnrPoint.from_db(db) for db in range(-10, 35, 5)]

    def run_peak(trials):
        return traced_peak(lambda: run_cell(cfg, 5, list(Scheme), snrs, trials, 2026))

    one, many = run_peak(semetrics._CHUNK), run_peak(16 * semetrics._CHUNK)
    assert (many - one) / (16 * semetrics._CHUNK * 5) < 1


def test_scheme_order_does_not_change_estimates():
    # HBS overwrites the chunk's R with its inverse, so ABS must read R first
    # in every order: in all six orders of the three schemes, each scheme's
    # estimates are the same.  32x5 at seed 2026 includes flagged trials.
    cfg = ArrayConfig(32, 0.5)
    snrs = [1.0, 316.0]
    by_order = [dict(zip(order, run_cell(cfg, 5, order, snrs, 8192, 2026)))
                for order in permutations(Scheme)]
    assert len(by_order) == 6 and by_order[0][Scheme.HBS][0].n_fallback > 0
    assert all(estimates == by_order[0] for estimates in by_order[1:])


def test_chunk_size_invariance(monkeypatch):
    cfg = ArrayConfig(32, 0.5)
    default = run_cell(cfg, 5, [Scheme.HBS], [316.0], 2048, 2026)
    monkeypatch.setattr(semetrics, "_CHUNK", 333)
    assert run_cell(cfg, 5, [Scheme.HBS], [316.0], 2048, 2026) == default


def test_estimates_equal_for_any_chunking_and_worker_count(monkeypatch):
    # The running sums are one sequential pass over the trials, so neither a
    # chunk boundary nor the process that simulated a chunk shows in them:
    # every scheme of 32x5 and 32x9 at three points over 5000 trials (flagged
    # HBS trials included) is equal at chunks of 2048, 333 and 4999 (whose
    # last chunk is one trial), on one process and on two.
    snrs = [SnrPoint.from_db(db) for db in (-10.0, 10.0, 30.0)]
    cells = [(n_users, ArrayConfig(32, 0.5), list(Scheme), snrs) for n_users in (5, 9)]
    default = run_monte_carlo(cells, 5000, 2026)
    assert default[0][1][0].n_fallback > 0
    for chunk in (2048, 333, 4999):
        monkeypatch.setattr(semetrics, "_CHUNK", chunk)
        for workers in (1, 2):
            assert run_monte_carlo(cells, 5000, 2026, workers) == default


@pytest.mark.parametrize("workers", [1, 2])
def test_snr_grid_equals_one_point_calls(workers):
    # One simulation of every scheme reduced at every point of an unsorted
    # grid with a repeated point equals a simulation per scheme and point.
    # 32x5 at seed 2026 with 40000 trials covers the HBS fallback and the
    # redraws of trials 29735 and 29925.
    cfg = ArrayConfig(32, 0.5)
    trials = 40000
    assert trials > semetrics._CHUNK
    snrs = [SnrPoint.from_db(30.0), 0.5, SnrPoint.from_db(-10.0), SnrPoint.from_db(30.0)]
    grid = run_cell(cfg, 5, list(Scheme), snrs, trials, 2026, workers)
    assert len(grid) == len(Scheme)
    for scheme, estimates in zip(Scheme, grid):
        assert estimates == tuple(run_cell(cfg, 5, [scheme], [snr], trials, 2026)[0][0]
                                  for snr in snrs)
        assert estimates[0].n_resampled == (2 if scheme is Scheme.HBS else 0)


@pytest.mark.parametrize("n_users", range(1, 7))
def test_draw_block_is_stacked_per_trial_draws(n_users):
    # A chunk of trials [start, start + count) is one generator call,
    # ``_draw_chunk``.  One call spans a gain-stage chunk boundary; two hold
    # more than a chunk.
    for seed, start, count in ((2026, 0, 7), (0, semetrics._CHUNK - 3, 6), (7, 10**6, 3),
                               (2**32 - 1, 1, semetrics._CHUNK + 5),
                               (2**32 - 1, 0, semetrics._CHUNK + 5)):
        aods, x = _draw_chunk(seed, n_users, start, count)
        ref_aods, ref_x = zip(*(sample_path_params(child_rng(seed, n_users, t), n_users)
                                for t in range(start, start + count)))
        assert aods.tobytes() == np.stack(ref_aods).tobytes()
        assert x.tobytes() == np.stack(ref_x).tobytes()
        assert aods.shape == x.shape == (count, n_users)


def test_pooled_run_equals_in_process():
    # one pool runs chunks of both user counts; each cell's estimates are
    # those of a call on that cell alone
    count = 2 * semetrics._CHUNK + 5
    cells = [(4, ArrayConfig(8), [Scheme.ABS, Scheme.HBS], [1.0, 100.0]),
             (2, ArrayConfig(16), [Scheme.NO_INTERFERENCE], [10.0]),
             (4, ArrayConfig(32), [Scheme.HBS], [1000.0])]
    single = run_monte_carlo(cells, count, 11)
    assert run_monte_carlo(cells, count, 11, workers=2) == single
    assert single == [run_cell(config, n_users, schemes, snrs, count, 11)
                      for n_users, config, schemes, snrs in cells]


def test_gain_stage_leaves_its_draws_unwritten():
    # the arrays of a user count read one chunk of draws: ABS and HBS on the
    # 32x5 chunk that holds trials 29735 and 29925, which HBS flags and
    # redraws, leave its angles and powers as drawn
    start = 29735 // semetrics._CHUNK * semetrics._CHUNK
    aods, x = _draw_chunk(2026, 5, start, semetrics._CHUNK)
    drawn = aods.tobytes(), x.tobytes()
    ((*_, resampled, _),) = _gain_chunk(aods, x, ArrayConfig(32, 0.5), [Scheme.HBS],
                                        2026, start)
    assert resampled == 2
    assert (aods.tobytes(), x.tobytes()) == drawn


def test_empty_snr_grid_rejected():
    with pytest.raises(ValueError, match="SNR"):
        run_cell(ArrayConfig(4), 2, [Scheme.ABS], [], 10, 0)


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
    ((a,),) = run_cell(cfg, 2, [Scheme.ABS], [100.0], 4000, 50)
    ((b,),) = run_cell(cfg, 2, [Scheme.ABS], [100.0], 8000, 51)
    ratio = b.std_error / a.std_error
    assert 0.8 * (1 / np.sqrt(2)) < ratio < 1.2 * (1 / np.sqrt(2))


def test_trial_means_add_streams_in_order():
    # A trial's K SEs are added in order of k whatever the chunk's length: a
    # one-trial chunk of 9 streams, which a contiguous numpy sum would add
    # pairwise, gives the bytes of a plain loop, as a longer chunk does.
    rng = np.random.default_rng(9)
    for count in (1, 3):
        signal, interference = rng.random((9, count)), rng.random((9, count))
        snrs = [SnrPoint(1.0), SnrPoint(1000.0)]
        se = [se_from_gains(signal, interference, rho.rho_linear) for rho in snrs]
        expected = [[sum(point[:, t]) / 9 for t in range(count)] for point in se]
        means = semetrics._trial_means(signal, interference, snrs)
        assert [row.tolist() for row in means] == expected


def test_estimate_fields():
    ((est,),) = run_cell(ArrayConfig(4), 2, [Scheme.ABS], [10.0], 300, 1)
    assert isinstance(est, MonteCarloEstimate)
    assert est.n_resampled == 0
    assert est.std_error > 0
    # the running sums make the float operations of one loop over the
    # per-trial means of the streams, in trial order: the sums of d and d^2,
    # d a trial's mean less trial 0's; the mean is that of the per-trial
    # means, and the standard error is over trials, whose streams share R
    se, _ = kernel_se(ArrayConfig(4), 2, Scheme.ABS, 10.0, 1, 0, 300)
    means = [sum(row) / len(row) for row in se]
    sums = squares = 0.0
    for mean in means:
        d = mean - means[0]
        sums += d
        squares += d * d
    assert est.mean == means[0] + sums / len(means)
    std = math.sqrt((squares - sums * sums / len(means)) / (len(means) - 1))
    assert est.std_error == std / math.sqrt(len(means))


AVX512_TARGETS = ("AVX512_SPR", "AVX512_ICL", "X86_V4")


def test_estimates_agree_across_simd_targets():
    # The output contract across SIMD targets: bytes are a function of the
    # inputs on one numpy build and one SIMD target.  A run with numpy's
    # AVX-512 dispatch disabled (its float64 log1p differs by an ulp on some
    # inputs) gives the same counts and every se_mean within 1e-14 relative.
    # 32x5 at seed 2026 flags 27 of 4096 HBS trials, so a flag that flipped
    # on a 1-ulp change in the draws would show in n_fallback.
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        pytest.skip("numpy exposes no runtime CPU feature table")
    if not any(__cpu_features__.get(name) for name in AVX512_TARGETS):
        pytest.skip(f"host has none of the dispatch targets {', '.join(AVX512_TARGETS)}")
    code = ("import json, sys\n"
            "from numpy._core._multiarray_umath import __cpu_features__ as cpu\n"
            "from beamsteer.arrays import ArrayConfig\n"
            "from beamsteer.semetrics import Scheme, run_monte_carlo\n"
            "(cell,) = run_monte_carlo([(5, ArrayConfig(32, 0.5), (Scheme.ABS, Scheme.HBS),\n"
            "                            [1.0, 1000.0])], 4096, 2026)\n"
            f"json.dump([[cpu.get(n) for n in {AVX512_TARGETS!r}],\n"
            "           [[e.mean, e.n_resampled, e.n_fallback] for es in cell for e in es]],\n"
            "          sys.stdout)\n")
    src = str(Path(beamsteer.__file__).resolve().parents[1])
    runs = []
    for disabled in ("", " ".join(AVX512_TARGETS)):
        env = dict(os.environ, PYTHONPATH=src, NPY_DISABLE_CPU_FEATURES=disabled)
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout))
    (default_cpu, default), (avx2_cpu, avx2) = runs
    assert any(default_cpu) and not any(avx2_cpu)
    assert [counts for _, *counts in default] == [counts for _, *counts in avx2]
    assert [fallback for *_, fallback in default] == [0, 0, 27, 27]
    for (mean, *_), (other, *_) in zip(default, avx2):
        assert abs(mean - other) <= 1e-14 * abs(mean)


def test_invalid_parameters():
    with pytest.raises(ValueError):
        run_cell(ArrayConfig(4), 0, [Scheme.ABS], [1.0], 10, 0)
    with pytest.raises(ValueError):
        run_cell(ArrayConfig(4), 2, [Scheme.ABS], [1.0], 0, 0)
    for schemes in ([], [Scheme.ABS, Scheme.HBS, Scheme.ABS], ["HBS", Scheme.HBS]):
        with pytest.raises(ValueError, match="scheme"):
            run_cell(ArrayConfig(4), 2, schemes, [1.0], 10, 0)


@pytest.mark.parametrize("rho", [float("nan"), -1.0, 0.0, float("inf")])
def test_raw_rho_validated(rho):
    with pytest.raises(ValueError):
        run_cell(ArrayConfig(4), 2, [Scheme.ABS], [rho], 10, 0)


def test_hbs_more_users_than_antennas_rejected():
    with pytest.raises(ValueError, match=r"3 users on 2 antennas"):
        run_cell(ArrayConfig(2), 3, [Scheme.HBS], [10.0], 2, 0)
    # the analog schemes stay defined for K > n_tx
    for scheme in (Scheme.ABS, Scheme.NO_INTERFERENCE):
        assert np.isfinite(run_cell(ArrayConfig(2), 3, [scheme], [10.0], 20, 0)[0][0].mean)


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
        aods, x = draw(rng, n_paths)
        return aods[perm], x[perm]

    # first attempts come from the block, redraws from sample_path_params
    aods, x = sample_path_params(child_rng(seed, n_users, start), n_users, count)
    with mock.patch.object(semetrics, "sample_path_params", permuted_draw):
        permuted, _ = kernel_se(cfg, n_users, scheme, rho, seed, start, count,
                                block=(aods[:, perm], x[:, perm]))
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
