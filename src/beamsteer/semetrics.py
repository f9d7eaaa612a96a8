"""Per-stream spectral efficiency and the Monte Carlo estimator.

The estimator draws pure-LoS realizations (one path per user), builds the
requested beamformer, and averages log2(1 + SINR) over trials and streams.
Noise power is unity; rho is the per-user transmit SNR, so it multiplies
both the signal and the interference terms.

The kernel is rho-free.  One computation path, vectorized over a chunk of
trials, gives the gains |h_k f_i|^2 of every trial: draws, steering columns,
channel rows and beams.  The hybrid scheme solves its zero-forcing stage in
float64 for the whole chunk; a trial the batched solve flags (large or
non-finite residual, a zero composite column, or a singular batch) is
recomputed on the same arrays through the extended-precision chain
``hbs_beamformer_set``, and a draw that chain finds singular is redrawn in
place from the trial's next resample stream.  SNR enters only in the SE
reduction ``se_from_gains``, so one simulation serves a whole SNR grid.

Per-trial results come from independent child streams and are written into
a (trials, K, K) gain array that is reduced in a fixed order, so the estimate
is bit-identical regardless of worker count, chunk size or execution order.
"""

from __future__ import annotations

import enum
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .arrays import ArrayConfig
from .beamforming import DegeneratePrecoder, SingularEquivalentChannel, hbs_beamformer_set
from .channel import child_rng, sample_path_params

_CHUNK = 2048
# Batched-solve residual above which a trial is recomputed through the
# extended-precision chain (which applies the pivot threshold contract).
_RESIDUAL_TOL = 1e-6
# Draws tried per trial (the first plus resamples) before giving up.
_MAX_ATTEMPTS = 1000


class Scheme(enum.Enum):
    ABS = "ABS"
    HBS = "HBS"
    NO_INTERFERENCE = "NoInterference"


@dataclass(frozen=True)
class SnrPoint:
    """Per-user transmit SNR, carried in linear and dB form."""

    rho_linear: float
    rho_db: float

    def __post_init__(self):
        if not (np.isfinite(self.rho_linear) and np.isfinite(self.rho_db)):
            raise ValueError(f"SNR must be finite, got rho_linear={self.rho_linear!r}, "
                             f"rho_db={self.rho_db!r}")
        if self.rho_linear <= 0:
            raise ValueError("rho_linear must be positive")
        if abs(self.rho_db - 10.0 * np.log10(self.rho_linear)) > 1e-9:
            raise ValueError("rho_db inconsistent with rho_linear")

    @classmethod
    def from_db(cls, rho_db: float) -> "SnrPoint":
        try:
            rho_linear = 10.0 ** (rho_db / 10.0)
        except OverflowError:
            raise ValueError(f"SNR must be finite, {rho_db} dB overflows") from None
        return cls(rho_linear=rho_linear, rho_db=rho_db)

    @classmethod
    def from_linear(cls, rho_linear: float) -> "SnrPoint":
        if rho_linear <= 0:
            raise ValueError("rho_linear must be positive")
        return cls(rho_linear=rho_linear, rho_db=10.0 * np.log10(rho_linear))


@dataclass(frozen=True)
class MonteCarloEstimate:
    mean: float
    std_error: float
    n_trials: int
    n_resampled: int
    per_user_mean: tuple  # per-stream means, diagnostics only


def se_from_gains(gains: np.ndarray, rho_lin: float) -> np.ndarray:
    """Per-stream SE log2(1 + SINR), bits/s/Hz, from a (..., K, K) gain array.

    ``gains[..., k, i] = |h_k f_i|^2`` is the power stream i's beam delivers
    to user k, so stream k has
    SINR = rho g_kk / (rho sum_{i != k} g_ki + 1).  Returns shape (..., K).
    """
    diag = np.einsum("...kk->...k", gains)
    interference = gains.sum(axis=-1) - diag
    return np.log2(1.0 + rho_lin * diag / (rho_lin * interference + 1.0))


def _los(aods, gains, n_tx, spacing):
    """Steering columns (..., n_tx, K) and LoS channel rows (..., K, n_tx)."""
    zeta = 2.0 * np.pi * spacing * np.sin(aods)
    m = np.arange(n_tx)
    steer = np.exp(1j * m[:, None] * zeta[..., None, :]) / np.sqrt(n_tx)
    h = np.sqrt(n_tx) * gains[..., :, None] * np.swapaxes(steer.conj(), -1, -2)
    return steer, h


def _gain_chunk(n_tx, spacing, n_users, scheme_value, seed, start, count):
    """Gains |h_k f_i|^2 for trials [start, start+count), vectorized over trials.

    Returns the (count, K, K) gain block and the number of resampled draws.
    """
    config = ArrayConfig(n_tx=n_tx, spacing=spacing)
    scheme = Scheme(scheme_value)
    aods = np.empty((count, n_users))
    gains = np.empty((count, n_users), dtype=complex)
    for i in range(count):
        rng = child_rng(seed, start + i)
        aods[i], gains[i] = sample_path_params(rng, n_users)
    steer, h = _los(aods, gains, n_tx, spacing)

    flagged = []
    if scheme is Scheme.NO_INTERFERENCE:
        g2 = np.abs(np.einsum("tkn,tnk->tk", h, steer))[:, :, None] ** 2 * np.eye(n_users)
    elif scheme is Scheme.ABS:
        g2 = np.abs(h @ steer) ** 2
    else:
        h_hat = h @ steer  # (T, K, K) equivalent channel
        eye = np.broadcast_to(np.eye(n_users), (count, n_users, n_users))
        try:
            w = np.linalg.solve(h_hat, eye.copy())
        except np.linalg.LinAlgError:
            g2 = np.empty((count, n_users, n_users))
            flagged = range(count)
        else:
            residual = np.abs(h_hat @ w - eye).max(axis=(1, 2))
            composite = steer @ w
            norms = np.linalg.norm(composite, axis=1)  # (T, K)
            bad = (residual > _RESIDUAL_TOL) | ~np.isfinite(residual) | (norms == 0).any(axis=1)
            with np.errstate(invalid="ignore", divide="ignore"):
                g2 = np.abs(h @ (composite / norms[:, None, :])) ** 2
            flagged = np.nonzero(bad)[0]

    n_resampled = 0
    for i in flagged:
        for attempt in range(_MAX_ATTEMPTS):
            if attempt:
                aods[i], gains[i] = sample_path_params(
                    child_rng(seed, start + i, attempt), n_users)
                h[i] = _los(aods[i], gains[i], n_tx, spacing)[1]
            try:
                f = hbs_beamformer_set(h[i], aods[i], config)
            except (SingularEquivalentChannel, DegeneratePrecoder):
                n_resampled += 1
                continue
            g2[i] = np.abs(h[i] @ f) ** 2
            break
        else:
            raise RuntimeError("resample limit exceeded; check channel statistics")
    return g2, n_resampled


def run_monte_carlo(config: ArrayConfig, n_users: int, scheme: Scheme, snrs,
                    trials: int, seed: int,
                    workers: int = 1) -> tuple[MonteCarloEstimate, ...]:
    """Monte Carlo estimates of the expected per-stream SE over an SNR grid.

    ``snrs`` is a non-empty sequence of ``SnrPoint`` or linear SNRs, each
    finite and positive.  The trials are simulated once and every point is
    reduced from the same gains; the result holds one ``MonteCarloEstimate``
    per point, in the given order.  Streams of one trial are exchangeable
    under i.i.d. user statistics, so each estimate averages over trials and
    streams.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if n_users < 1:
        raise ValueError("n_users must be >= 1")
    scheme = Scheme(scheme)
    if scheme is Scheme.HBS and n_users > config.n_tx:
        raise ValueError(f"HBS needs n_users <= n_tx: the equivalent channel of "
                         f"{n_users} users on {config.n_tx} antennas is singular")
    snrs = [p if isinstance(p, SnrPoint) else SnrPoint.from_linear(float(p)) for p in snrs]
    if not snrs:
        raise ValueError("at least one SNR point is required")

    starts = range(0, trials, _CHUNK)
    args = [(config.n_tx, config.spacing, n_users, scheme.value, seed,
             s, min(_CHUNK, trials - s)) for s in starts]

    gains = np.empty((trials, n_users, n_users))
    n_resampled = 0
    pooled = workers > 1 and len(args) > 1
    with ProcessPoolExecutor(max_workers=workers) if pooled else nullcontext() as pool:
        blocks = (pool.map if pooled else map)(_gain_chunk, *zip(*args))
        for start, (block, resampled) in zip(starts, blocks):
            gains[start:start + block.shape[0]] = block
            n_resampled += resampled

    estimates = []
    for rho in snrs:
        se = se_from_gains(gains, rho.rho_linear)
        flat = se.ravel()
        std = flat.std(ddof=1) if flat.size > 1 else 0.0
        estimates.append(MonteCarloEstimate(
            mean=float(flat.mean()),
            std_error=float(std / np.sqrt(flat.size)),
            n_trials=trials,
            n_resampled=n_resampled,
            per_user_mean=tuple(se.mean(axis=0)),
        ))
    return tuple(estimates)
