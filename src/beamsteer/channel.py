"""Random draws of pure line-of-sight (LoS) channels.

Each user's channel is a single plane wave: departure angle uniform on
[0, 2*pi) and a circularly-symmetric complex Gaussian gain with unit second
moment (E|alpha|^2 = 1), so the row sqrt(n_tx) alpha a(aod)^H has
E||h||^2 = n_tx.  This module draws only the (aod, gain) pairs; ``semetrics``
builds what it needs from them, and the tests' reference rows are in
``tests/los_reference.py``.

Stream layout.  A trial of K users uses exactly 3K uniforms u on [0, 1):
K angles aod = 2 pi u, then K radii u_r and K phases u_phi, which give the
gain sqrt(-log(1 - u_r)) exp(j 2 pi u_phi) ~ CN(0, 1) (Box-Muller, so the
count of uniforms is fixed).  They come from the counter-based generator
Philox4x64 (Salmon et al., SC'11) with the key seed + (attempt << 64): the
master seed, in [0, 2**64), is the low key word and the resample attempt the
high one.  A counter step yields 4 uniforms, so trial t owns the steps
[t m, (t + 1) m) with m = ceil(3K / 4), and the last 4m - 3K uniforms of a
trial go unused.  A redraw (attempt >= 1) reads the same counters under its
own key, never another trial's.

Reproducibility: trial t's draws depend only on (seed, K, t, attempt), so a
chunk of trials is one generator call, and trials can run in any order,
chunking or across workers with identical results.
"""

from __future__ import annotations

import operator

import numpy as np

TWO_PI = 2.0 * np.pi


def _counter_steps(n_paths: int) -> int:
    """Philox4x64 counter steps of one trial: ceil(3 n_paths / 4)."""
    return -(-3 * n_paths // 4)


def child_rng(seed: int, n_paths: int, trial: int, attempt: int = 0) -> np.random.Generator:
    """Stream positioned at the first draw of ``trial`` (of ``n_paths`` users)
    and resample ``attempt``; it runs on into the trials that follow.

    Every draw gets its stream here, so this is where the seed is checked:
    it must fit the 64-bit key word, [0, 2**64).
    """
    seed = operator.index(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    bits = np.random.Philox(key=seed + (attempt << 64),
                            counter=trial * _counter_steps(n_paths))
    return np.random.Generator(bits)


def sample_path_params(rng: np.random.Generator, n_paths: int, count: int | None = None):
    """Draw one trial's n_paths (aod, gain) pairs from ``rng``, or with
    ``count`` the next ``count`` trials, stacked.

    Returns (aods, gains) of shape (n_paths,), or (count, n_paths): aod ~
    U[0, 2*pi), gain ~ CN(0, 1).  Each trial reads 4 ceil(3 n_paths / 4)
    uniforms in the layout above; every consumer (the batched
    ``semetrics.draw_block`` too) draws here, so the draw order is fixed in
    one place.
    """
    u = rng.random((1 if count is None else count, 4 * _counter_steps(n_paths)))
    aods = TWO_PI * u[:, :n_paths]
    radii = np.sqrt(-np.log1p(-u[:, n_paths:2 * n_paths]))
    gains = radii * np.exp(1j * TWO_PI * u[:, 2 * n_paths:3 * n_paths])
    return (aods[0], gains[0]) if count is None else (aods, gains)
