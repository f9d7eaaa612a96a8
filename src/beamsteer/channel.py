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


def sample_path_params(rng: np.random.Generator, n_paths: int):
    """Draw n_paths (aod, gain) pairs; the single sampling routine shared by
    every consumer so that draw order is fixed.

    Returns (aods, gains) arrays: aod ~ U[0, 2*pi), gain ~ CN(0, 1).
    """
    aods = rng.uniform(0.0, TWO_PI, n_paths)
    gains = (rng.standard_normal(n_paths) + 1j * rng.standard_normal(n_paths)) * np.sqrt(0.5)
    return aods, gains


def los_channel(path: PathParams, config: ArrayConfig) -> np.ndarray:
    """Pure LoS channel row: sqrt(n_tx) * alpha * a(phi)^H."""
    return np.sqrt(config.n_tx) * path.gain * steering_vector(path.aod, config).conj()

