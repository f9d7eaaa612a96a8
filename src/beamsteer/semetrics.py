"""Per-stream spectral efficiency and the Monte Carlo estimator.

The estimator draws pure-LoS realizations (one path per user), builds the
requested beamformer, and averages log2(1 + SINR) over trials and streams.
Noise power is unity; rho is the per-user transmit SNR, so it multiplies
both the signal and the interference terms.

A run has two stages.  The draw stage, ``draw_blocks``, gives the
first-attempt (aods, gains) of every trial as one read-only block per user
count K, drawn chunk by chunk; with workers it maps every chunk of every
block over one process pool, so a command starts at most one.  A trial's
draws depend only on (seed, trial, K), never on n_tx or the scheme: trial t
owns a fixed stretch of counters of the Philox stream keyed by the seed (the
layout is in ``channel``), so a chunk of trials [s, s + count) is one
``sample_path_params(child_rng(seed, K, s), K, count)`` call, which any
worker can make in any order.  One block serves every cell of its K:
``experiment`` draws the blocks of a command once and hands each to the
``run_monte_carlo`` of every array of that K.  The gain stage turns a block
into each scheme's per-stream signal |h_k f_k|^2 and interference
sum_{i != k} |h_k f_i|^2 on one array, two (trials, K) arrays, chunk by
chunk in the calling process, and reduces them at every SNR point; a chunk's
Gram kernel is computed once for all the schemes that read it.

The gain stage is rho-free and works on K x K arrays alone.  In the pure-LoS
model a trial's equivalent channel is H_hat = sqrt(N) diag(g) G, with G =
A^H A the Gram matrix of the steering columns.  G = P^H R P, where
P = diag(e^{j(N-1)zeta_k/2}) is unitary and R, the real, symmetric
Dirichlet kernel of ``_gram``, has unit diagonal, so |G_ki| = |R_ki|,
(G^-1)_kk = (R^-1)_kk and the Frobenius norms of G and G^-1 are those of R
and R^-1: no scheme needs a complex exponential or an n_tx-long vector.
With the power N |g_k|^2 as signal, NoInterference has no interference and
needs no angles, and ABS has the interference N |g_k|^2 sum_{i != k}
R_ki^2.  The hybrid scheme (ZF on H_hat, then vector normalization) has the
signal N |g_k|^2 / (R^-1)_kk and no interference, from one real float64
inverse per chunk, ``_gram_inverse``.  A trial that inverse cannot be
trusted for (a condition bound eps64 ||R||_F ||R^-1||_F above 5e-10, or a
non-positive or non-finite diagonal entry, which the zero pivot of an
exactly singular R gives) is recomputed from its own n_tx-long channel rows
through the extended-precision chain ``hbs_beamformer_set``, and a draw
that chain finds singular is redrawn from the trial's next resample
stream: the same counters under the key word of attempt 1, 2, ...
The redraw stays local to the cell: the shared block is never written.
``MonteCarloEstimate.n_fallback`` counts those trials.  SNR enters only in
the SE reduction ``se_from_gains``, so one simulation serves a whole SNR
grid.  An SNR point is an ``SnrPoint``, one linear value that its
constructor checks to be finite and positive; ``check_cell`` checks every
other input of a cell before anything is drawn.

Per-trial results come from each trial's own counters and are reduced in a
fixed order, so the estimate is bit-identical regardless of worker count,
chunk size, execution order or whether the block was shared.
"""

from __future__ import annotations

import enum
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .arrays import ArrayConfig, phase_progression, steering_vector
from .beamforming import DegeneratePrecoder, SingularEquivalentChannel, hbs_beamformer_set
from .channel import child_rng, sample_path_params

_CHUNK = 2048
# Bound on eps64 * cond(G), the scale of the float64 Gram inverse's forward
# error, above which a trial is recomputed through the extended-precision
# chain (which applies the pivot threshold contract).  At 1e-9, two trials
# of 32x5 at seed 2026 (cond 3.2e6 and 3.9e6) are off by 1.9e-9 in SE.
_FORWARD_TOL = 5e-10
_EPS64 = np.finfo(np.float64).eps
# Draws tried per trial (the first plus resamples) before giving up.
_MAX_ATTEMPTS = 1000


class Scheme(enum.Enum):
    ABS = "ABS"
    HBS = "HBS"
    NO_INTERFERENCE = "NoInterference"


@dataclass(frozen=True)
class SnrPoint:
    """Per-user transmit SNR, linear; it must be finite and positive."""

    rho_linear: float

    def __post_init__(self):
        if not np.isfinite(self.rho_linear):
            raise ValueError(f"SNR must be finite, got rho_linear={self.rho_linear!r}")
        if self.rho_linear <= 0:
            raise ValueError("rho_linear must be positive")

    @classmethod
    def from_db(cls, rho_db: float) -> "SnrPoint":
        try:
            rho_linear = 10.0 ** (rho_db / 10.0)
        except OverflowError:
            raise ValueError(f"SNR must be finite, {rho_db} dB overflows") from None
        return cls(rho_linear)


@dataclass(frozen=True)
class MonteCarloEstimate:
    mean: float
    std_error: float
    n_trials: int
    n_resampled: int
    n_fallback: int  # trials computed by the extended-precision chain


def se_from_gains(signal: np.ndarray, interference: np.ndarray, rho_lin: float) -> np.ndarray:
    """Per-stream SE log2(1 + SINR), bits/s/Hz, from (..., K) arrays of
    |h_k f_k|^2 and sum_{i != k} |h_k f_i|^2: SINR = rho s / (rho i + 1),
    through log1p, which keeps the digits of a small SINR that 1 + SINR loses."""
    return np.log1p(rho_lin * signal / (rho_lin * interference + 1.0)) / np.log(2.0)


def _off_diagonal_sums(m):
    """Sums over i != k of each row k of m (..., K, K), overwriting m's diagonal;
    the row sum minus m_kk would cancel the digits of a leakage far below it."""
    n = m.shape[-1]
    m[..., range(n), range(n)] = 0.0
    return m.sum(axis=-1)


def _los(aods, gains, config):
    """LoS channel rows (K, n_tx) of one trial: sqrt(n_tx) g_k a_k^H."""
    return np.sqrt(config.n_tx) * gains[:, None] * steering_vector(aods, config).conj().T


def _gram(aods, config):
    """Real Gram matrices R of the unit-norm steering columns, (..., K, K).

    R_ki = sin(N delta/2) / (N sin(delta/2)), delta = zeta_i - zeta_k, at the
    K(K-1)/2 lags i > k, mirrored (sin is odd: the bytes of the lag -delta).
    numpy's sine reduces its argument against pi exactly, so near a lag of
    +-2 pi both sines keep their relative accuracy and the ratio does not
    cancel.  Where sin(delta/2) is zero the users' columns coincide: R is 1.
    """
    n_tx = config.n_tx
    zeta = phase_progression(aods, config)
    n_users = zeta.shape[-1]
    k, i = np.triu_indices(n_users, 1)
    delta = zeta[..., i] - zeta[..., k]
    den = n_tx * np.sin(delta / 2.0)
    coincident = den == 0.0
    ratio = np.sin(n_tx * delta / 2.0) / np.where(coincident, 1.0, den)
    r = np.ones(zeta.shape + (n_users,))
    r[..., k, i] = r[..., i, k] = np.where(coincident, 1.0, ratio)
    return r


def _gram_inverse(r):
    """Inverses of a (T, K, K) stack of Gram kernels R, by in-place Gauss-Jordan
    elimination vectorised over the trials.  R is symmetric positive definite
    with unit diagonal, so it needs no pivoting; an exactly singular R meets a
    zero pivot, which leaves that trial's inverse, and no other, non-finite."""
    inv = r.copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(r.shape[-1]):
            col = inv[:, :, k].copy()
            inv[:, :, k] = 0.0
            inv[:, k, k] = 1.0
            inv[:, k] /= col[:, k, None]
            col[:, k] = 0.0
            inv -= col[:, :, None] * inv[:, None, k]
    return inv


def _draw_chunk(seed, n_users, start, count):
    """(aods, gains) of trials [start, start + count), from one kernel call."""
    return sample_path_params(child_rng(seed, n_users, start), n_users, count)


def draw_blocks(seed: int, user_counts, trials: int, workers: int = 1):
    """Draw stage: first-attempt draws of trials [0, trials) for each user count.

    Returns {n_users: (aods, gains)}, read-only arrays of shape (trials,
    n_users), row t byte-identical to ``sample_path_params(child_rng(seed,
    n_users, t), n_users)``.  Each block is drawn in chunks of ``_CHUNK``
    trials, which keeps the kernel's temporaries small; with ``workers > 1``
    the chunks of every block are drawn over one process pool, and the values
    do not depend on it.  The pool starts all its processes at once, so it
    gets no more than one per chunk and per CPU.
    """
    blocks = {k: (np.empty((trials, k)), np.empty((trials, k), dtype=complex))
              for k in user_counts}
    jobs = [(k, s) for k in blocks for s in range(0, trials, _CHUNK)]
    pool = (ProcessPoolExecutor(max_workers=min(workers, len(jobs), os.cpu_count() or 1))
            if workers > 1 and len(jobs) > 1 else None)
    with pool or nullcontext():
        parts = (pool.map if pool else map)(_draw_chunk, repeat(seed), *zip(*jobs),
                                            [min(_CHUNK, trials - s) for _, s in jobs])
        for (k, s), (chunk_aods, chunk_gains) in zip(jobs, parts):
            aods, gains = blocks[k]
            aods[s:s + _CHUNK], gains[s:s + _CHUNK] = chunk_aods, chunk_gains
    for aods, gains in blocks.values():
        aods.flags.writeable = gains.flags.writeable = False
    return blocks


def _gain_chunk(aods, gains, config, schemes, seed, start):
    """Gain stage on trials [start, start + len(aods)) of ``seed``, drawn as
    (aods, gains): per scheme, their (count, K) signal and interference, the
    number of resampled draws and the number of extended-precision trials.
    The Gram kernel R is computed once for the schemes that read it."""
    power = config.n_tx * np.abs(gains) ** 2
    gram = _gram(aods, config) if {Scheme.ABS, Scheme.HBS} & set(schemes) else None
    out = []
    for scheme in schemes:
        if scheme is Scheme.ABS:
            out.append((power, power * _off_diagonal_sums(gram ** 2), 0, 0))
        elif scheme is Scheme.HBS:
            out.append(_hbs_chunk(aods, gains, config, gram, power, seed, start))
        else:
            out.append((power, np.zeros_like(power), 0, 0))
    return out


def _hbs_chunk(aods, gains, config, gram, power, seed, start):
    """``_gain_chunk``'s HBS entry, from the chunk's Gram kernels ``gram``."""
    n_users = aods.shape[1]
    inv = _gram_inverse(gram)
    # ZF with vector normalization leaves stream k the signal
    # N |g_k|^2 / (R^-1)_kk and no leakage: G w_i = e_i / (sqrt(N) g_i).
    # ||R||_F ||R^-1||_F >= cond_2(R), and eps64 * cond_2 is the scale
    # of the float64 inverse's forward error.  A non-finite inverse fails it.
    inv_diag = np.diagonal(inv, axis1=1, axis2=2)
    cond = np.sqrt((gram ** 2).sum(axis=(1, 2))) * np.sqrt((inv ** 2).sum(axis=(1, 2)))
    good = (_EPS64 * cond <= _FORWARD_TOL) & (inv_diag > 0.0).all(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        signal = power / inv_diag
    interference = np.zeros_like(signal)
    flagged = np.nonzero(~good)[0]

    n_resampled = 0
    for i in flagged:
        # a redraw rebinds the trial's own arrays; the shared block stays as drawn
        trial_aods, trial_gains = aods[i], gains[i]
        for attempt in range(_MAX_ATTEMPTS):
            if attempt:
                trial_aods, trial_gains = sample_path_params(
                    child_rng(seed, n_users, start + i, attempt), n_users)
            h = _los(trial_aods, trial_gains, config)
            try:
                f = hbs_beamformer_set(h, trial_aods, config)
            except (SingularEquivalentChannel, DegeneratePrecoder):
                n_resampled += 1
                continue
            g2 = np.abs(h @ f) ** 2
            signal[i] = np.diagonal(g2)
            interference[i] = _off_diagonal_sums(g2)
            break
        else:
            raise RuntimeError("resample limit exceeded; check channel statistics")
    return signal, interference, n_resampled, len(flagged)


def check_cell(config: ArrayConfig, n_users: int, schemes, snrs, trials: int):
    """Input checks of one cell; returns its (tuple of Scheme, list of SnrPoint)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if n_users < 1:
        raise ValueError("n_users (beams) must be >= 1")
    schemes = tuple(Scheme(s) for s in schemes)
    if not schemes:
        raise ValueError("at least one scheme is required")
    if len(set(schemes)) < len(schemes):
        raise ValueError(f"scheme list {[s.value for s in schemes]} repeats an entry")
    if Scheme.HBS in schemes and n_users > config.n_tx:
        raise ValueError(f"HBS needs n_users <= n_tx: the equivalent channel of "
                         f"{n_users} users on {config.n_tx} antennas is singular")
    snrs = [p if isinstance(p, SnrPoint) else SnrPoint(float(p)) for p in snrs]
    if not snrs:
        raise ValueError("at least one SNR point is required")
    return schemes, snrs


def run_monte_carlo(config: ArrayConfig, n_users: int, schemes, snrs, trials: int,
                    seed: int, *, block=None) -> tuple[tuple[MonteCarloEstimate, ...], ...]:
    """Monte Carlo estimates of the expected per-stream SE over an SNR grid.

    ``schemes`` is a non-empty sequence of distinct ``Scheme``; ``snrs`` is a
    non-empty sequence of ``SnrPoint`` or linear SNRs, each finite and
    positive; a point at which rho times a gain overflows float64 raises
    ``ValueError``.  The trials are simulated once for all the schemes and
    every point is reduced from the same gains; the result holds, per scheme
    in the given order, a tuple of one ``MonteCarloEstimate`` per point, in
    the given order.  A scheme's estimates are those of a call with that
    scheme alone.  Streams of one trial are exchangeable under i.i.d. user
    statistics, so each estimate averages over trials and streams.

    The trials are drawn by ``draw_blocks`` in this process, unless ``block``,
    that call's block for this seed, user count and trial count, is given to
    share one draw between cells; the estimates are the same.
    """
    schemes, snrs = check_cell(config, n_users, schemes, snrs, trials)
    if block is None:
        block = draw_blocks(seed, [n_users], trials)[n_users]
    aods, gains = block
    if aods.shape != (trials, n_users):
        raise ValueError(f"block holds {aods.shape} draws, not (trials, n_users) = "
                         f"{(trials, n_users)}")

    per_scheme = zip(*(_gain_chunk(aods[s:s + _CHUNK], gains[s:s + _CHUNK], config, schemes,
                                   seed, s) for s in range(0, trials, _CHUNK)))
    return tuple(_estimates(parts, snrs, trials) for parts in per_scheme)


def _estimates(parts, snrs, trials):
    """One scheme's estimate at each SNR point, from its gain stage result
    (signal, interference, n_resampled, n_fallback) of each chunk."""
    signals, interferences, resampled, fallback = zip(*parts)
    signal, interference = np.concatenate(signals), np.concatenate(interferences)
    n_resampled, n_fallback = sum(resampled), sum(fallback)
    estimates = []
    for rho in snrs:
        # A finite rho can still overflow rho * N |g|^2, which gives a non-finite
        # SE, or only the rho * interference of a stream, whose SE then reads 0.
        try:
            with np.errstate(over="raise"):
                flat = se_from_gains(signal, interference, rho.rho_linear).ravel()
        except FloatingPointError:
            raise ValueError(f"SE at SNR {10.0 * np.log10(rho.rho_linear):.6g} dB cannot be "
                             f"computed: rho * n_tx |g|^2 overflows float64") from None
        std = flat.std(ddof=1) if flat.size > 1 else 0.0
        estimates.append(MonteCarloEstimate(
            mean=float(flat.mean()),
            std_error=float(std / np.sqrt(flat.size)),
            n_trials=trials,
            n_resampled=n_resampled,
            n_fallback=n_fallback,
        ))
    return tuple(estimates)
