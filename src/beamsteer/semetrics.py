"""Per-stream spectral efficiency and the Monte Carlo estimator.

The estimator draws pure-LoS realizations (one path per user), builds the
requested beamformer, and averages log2(1 + SINR) over trials and streams.
Noise power is unity; rho is the per-user transmit SNR, so it multiplies
both the signal and the interference terms.

A run has two stages.  The draw stage, ``draw_block``, gives the first-attempt
(aods, gains) of every trial as one read-only block, drawn chunk by chunk,
over a process pool when asked for.  A trial's draws depend only on (seed,
trial, K), never on n_tx or the scheme: trial t owns a fixed stretch of
counters of the Philox stream keyed by the seed (the layout is in
``channel``), so a chunk of trials [s, s + count) is one
``sample_path_params(child_rng(seed, K, s), K, count)`` call.  One block
serves every cell of a run: ``experiment`` draws it once per (seed, K) and
hands it to each (n_tx, scheme) cell's ``run_monte_carlo``.  The gain stage
turns a block into the per-stream signal |h_k f_k|^2 and interference
sum_{i != k} |h_k f_i|^2 of one cell, two (trials, K) arrays, chunk by chunk
in the calling process, and reduces them at every SNR point.

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


def draw_block(seed: int, n_users: int, trials: int, workers: int = 1):
    """Draw stage: first-attempt draws of trials [0, trials).

    Returns read-only (aods, gains) arrays of shape (trials, n_users), row t
    byte-identical to ``sample_path_params(child_rng(seed, n_users, t),
    n_users)``.  The block is drawn in chunks of ``_CHUNK`` trials, which
    keeps the kernel's temporaries small; with ``workers > 1`` the chunks are
    drawn over a process pool, and the values do not depend on it.  The pool
    starts all its processes at once, so it gets no more than one per chunk
    and per CPU.
    """
    starts = range(0, trials, _CHUNK)
    counts = [min(_CHUNK, trials - s) for s in starts]
    pool = (ProcessPoolExecutor(max_workers=min(workers, len(starts), os.cpu_count() or 1))
            if workers > 1 and len(starts) > 1 else None)
    aods = np.empty((trials, n_users))
    gains = np.empty((trials, n_users), dtype=complex)
    with pool or nullcontext():
        parts = (pool.map if pool else map)(_draw_chunk, repeat(seed), repeat(n_users),
                                            starts, counts)
        for s, (chunk_aods, chunk_gains) in zip(starts, parts):
            aods[s:s + _CHUNK], gains[s:s + _CHUNK] = chunk_aods, chunk_gains
    aods.flags.writeable = gains.flags.writeable = False
    return aods, gains


def _gain_chunk(aods, gains, config, scheme, seed, start):
    """Gain stage on trials [start, start + len(aods)) of ``seed``, drawn as
    (aods, gains): their (count, K) signal and interference, the number of
    resampled draws and the number of extended-precision trials."""
    n_users = aods.shape[1]
    signal = config.n_tx * np.abs(gains) ** 2
    interference = np.zeros_like(signal)
    flagged = []
    if scheme is Scheme.ABS:
        interference = signal * _off_diagonal_sums(_gram(aods, config) ** 2)
    elif scheme is Scheme.HBS:
        gram = _gram(aods, config)
        inv = _gram_inverse(gram)
        # ZF with vector normalization leaves stream k the signal
        # N |g_k|^2 / (R^-1)_kk and no leakage: G w_i = e_i / (sqrt(N) g_i).
        # ||R||_F ||R^-1||_F >= cond_2(R), and eps64 * cond_2 is the scale
        # of the float64 inverse's forward error.  A non-finite inverse fails it.
        inv_diag = np.diagonal(inv, axis1=1, axis2=2)
        cond = np.sqrt((gram ** 2).sum(axis=(1, 2))) * np.sqrt((inv ** 2).sum(axis=(1, 2)))
        good = (_EPS64 * cond <= _FORWARD_TOL) & (inv_diag > 0.0).all(axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            signal /= inv_diag
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


def check_cell(config: ArrayConfig, n_users: int, scheme: Scheme, snrs, trials: int):
    """Input checks of one cell; returns its (Scheme, list of SnrPoint)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if n_users < 1:
        raise ValueError("n_users (beams) must be >= 1")
    scheme = Scheme(scheme)
    if scheme is Scheme.HBS and n_users > config.n_tx:
        raise ValueError(f"HBS needs n_users <= n_tx: the equivalent channel of "
                         f"{n_users} users on {config.n_tx} antennas is singular")
    snrs = [p if isinstance(p, SnrPoint) else SnrPoint(float(p)) for p in snrs]
    if not snrs:
        raise ValueError("at least one SNR point is required")
    return scheme, snrs


def run_monte_carlo(config: ArrayConfig, n_users: int, scheme: Scheme, snrs,
                    trials: int, seed: int, *, block=None) -> tuple[MonteCarloEstimate, ...]:
    """Monte Carlo estimates of the expected per-stream SE over an SNR grid.

    ``snrs`` is a non-empty sequence of ``SnrPoint`` or linear SNRs, each
    finite and positive; a point at which rho times a gain overflows float64
    raises ``ValueError``.  The trials are simulated once and every point is
    reduced from the same gains; the result holds one ``MonteCarloEstimate``
    per point, in the given order.  Streams of one trial are exchangeable
    under i.i.d. user statistics, so each estimate averages over trials and
    streams.

    The trials are drawn by ``draw_block`` in this process, unless ``block``,
    that call's result for this seed, user count and trial count, is given to
    share one draw between cells; the estimates are the same.
    """
    scheme, snrs = check_cell(config, n_users, scheme, snrs, trials)
    if block is None:
        block = draw_block(seed, n_users, trials)
    aods, gains = block
    if aods.shape != (trials, n_users):
        raise ValueError(f"block holds {aods.shape} draws, not (trials, n_users) = "
                         f"{(trials, n_users)}")

    parts = list(zip(*(_gain_chunk(aods[s:s + _CHUNK], gains[s:s + _CHUNK], config, scheme,
                                   seed, s) for s in range(0, trials, _CHUNK))))
    signal, interference = np.concatenate(parts[0]), np.concatenate(parts[1])
    n_resampled, n_fallback = sum(parts[2]), sum(parts[3])

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
