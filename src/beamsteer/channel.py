"""Random pure line-of-sight (LoS) channel generation.

Each user's channel is a single plane wave: departure angle uniform on
[0, 2*pi) and a circularly-symmetric complex Gaussian gain with unit second
moment (E|alpha|^2 = 1), so E||h||^2 = n_tx.

Reproducibility: trial t of a Monte Carlo run draws from a child stream
derived deterministically from (master seed, t), so trials can run in any
order or across workers with identical results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import ArrayConfig, steering_vector

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class PathParams:
    """One propagation path: complex amplitude and angle of departure (rad)."""

    gain: complex
    aod: float


def child_rng(master_seed: int, trial: int, attempt: int = 0) -> np.random.Generator:
    """Independent substream for one trial (and resample attempt)."""
    key = (trial,) if attempt == 0 else (trial, attempt)
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=key)
    return np.random.Generator(np.random.PCG64(ss))


def fill_path_draws(rng: np.random.Generator, u: np.ndarray, z: np.ndarray) -> None:
    """Fill one draw's variates in place, in the fixed draw order: n uniforms
    into ``u`` of shape (n,), then 2n standard normals into ``z`` of shape
    (2, n).  ``path_params`` turns them into (aods, gains)."""
    rng.random(out=u)
    rng.standard_normal(out=z)


def path_params(u: np.ndarray, z: np.ndarray):
    """(aods, gains) from the variates of one draw or of a stack of draws,
    ``u`` (..., n) and ``z`` (..., 2, n): aod = 2 pi u ~ U[0, 2 pi) and
    gain = (z_0 + j z_1) / sqrt(2) ~ CN(0, 1)."""
    return TWO_PI * u, (z[..., 0, :] + 1j * z[..., 1, :]) * np.sqrt(0.5)


def sample_path_params(rng: np.random.Generator, n_paths: int):
    """Draw n_paths (aod, gain) pairs from ``rng``.

    Returns (aods, gains) arrays: aod ~ U[0, 2*pi), gain ~ CN(0, 1).  Every
    consumer draws through ``fill_path_draws`` and ``path_params`` (the batched
    ``semetrics.draw_block`` too), so the draw order is fixed in one place.
    """
    u, z = np.empty(n_paths), np.empty((2, n_paths))
    fill_path_draws(rng, u, z)
    return path_params(u, z)


def los_channel(path: PathParams, config: ArrayConfig) -> np.ndarray:
    """Pure LoS channel row: sqrt(n_tx) * alpha * a(phi)^H."""
    return np.sqrt(config.n_tx) * path.gain * steering_vector(path.aod, config).conj()

