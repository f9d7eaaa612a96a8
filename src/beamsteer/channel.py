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
Philox4x64-10 (Salmon et al., SC'11) with the key words (seed, attempt): the
master seed, in [0, 2**64), is the low key word and the resample attempt the
high one.  A counter step yields 4 words w, each the uniform (w >> 11) 2^-53,
so trial t owns the steps [t m, (t + 1) m) with m = ceil(3K / 4), and the
last 4m - 3K uniforms of a trial go unused.  A redraw (attempt >= 1) reads
the same counters under its own key, never another trial's.  ``_philox``
computes the generator in numpy integer arithmetic, so no process loads
``numpy.random``; its words are those of ``numpy.random.Philox(key=seed +
(attempt << 64), counter=t m)``, which the tests check.

Reproducibility: trial t's draws depend only on (seed, K, t, attempt), so a
chunk of trials is one kernel call, and trials can run in any order,
chunking or across workers with identical results.
"""

from __future__ import annotations

import operator

import numpy as np

TWO_PI = 2.0 * np.pi


def _counter_steps(n_paths: int) -> int:
    """Philox4x64 counter steps of one trial: ceil(3 n_paths / 4)."""
    return -(-3 * n_paths // 4)


def child_rng(seed: int, n_paths: int, trial: int, attempt: int = 0):
    """Stream position of the first draw of ``trial`` (of ``n_paths`` users)
    and resample ``attempt``: the key words and the counter, (seed, attempt,
    trial m).  The stream runs on into the trials that follow.

    Every draw gets its stream here, so this is where the seed is checked:
    it must fit the 64-bit key word, [0, 2**64).
    """
    seed = operator.index(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return seed, attempt, trial * _counter_steps(n_paths)


# Philox4x64 round multipliers of counter words 0 and 2, and the Weyl
# increments of the two key words.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10


def _philox(stream, steps: int):
    """The ``steps`` counter steps that follow ``stream`` as uniforms on
    [0, 1), (steps, 4).

    The counter is incremented before each step, as in numpy, so the first
    step runs on counter word 0 = counter + 1; words 1 to 3 start at 0.
    Words 0 and 2 (x, multiplied) and words 1 and 3 (y, xored in) are each
    stacked (2, steps), so that one numpy call serves both halves of a round.
    A round's 64 x 64 -> 128-bit products take the low word from numpy's
    wrapping multiply and the high word from 32-bit halves (mulhu, Hacker's
    Delight 8-2); every round runs in the same six (2, steps) buffers.
    """
    key0, key1, counter = stream
    lo32, shift = np.uint64(0xFFFFFFFF), np.uint64(32)
    m = np.array(_PHILOX_M, dtype=np.uint64)[:, None]
    m_lo, m_hi = m & lo32, m >> shift
    x = np.zeros((2, steps), dtype=np.uint64)
    x[0] = np.arange(counter + 1, counter + 1 + steps, dtype=np.uint64)
    y = np.zeros_like(x)
    u, hi, w, lo = (np.empty_like(x) for _ in range(4))
    for r in range(_PHILOX_ROUNDS):
        # u = m_hi x_lo + (m_lo x_lo >> 32) and w = m_lo x_hi + (u & lo32)
        # cannot overflow; hi = m_hi x_hi + (u >> 32) + (w >> 32)
        np.bitwise_and(x, lo32, out=u)
        np.right_shift(x, shift, out=hi)
        np.multiply(m, x, out=lo)
        np.multiply(m_lo, u, out=w)
        w >>= shift
        u *= m_hi
        u += w
        np.bitwise_and(u, lo32, out=w)
        w += np.multiply(m_lo, hi, out=x)
        hi *= m_hi
        u >>= shift
        hi += u
        w >>= shift
        hi += w
        # (x0, y0, x1, y1) <- (hi1 ^ y0 ^ k0, lo1, hi0 ^ y1 ^ k1, lo0), with
        # the key words bumped by their Weyl increments each round
        hi ^= y[::-1]
        hi ^= np.array([[(key1 + r * _PHILOX_W[1]) % 2**64],
                        [(key0 + r * _PHILOX_W[0]) % 2**64]], dtype=np.uint64)
        x, y, hi, lo = hi[::-1], lo[::-1], x, y
    del u, hi, w, lo
    out = np.empty((steps, 4))
    for col, word in enumerate((x[0], y[0], x[1], y[1])):
        np.multiply(word >> np.uint64(11), 2.0**-53, out=out[:, col])
    return out


def sample_path_params(stream, n_paths: int, count: int | None = None):
    """Draw one trial's n_paths (aod, gain) pairs from ``stream`` (a
    ``child_rng`` position), or with ``count`` the next ``count`` trials,
    stacked.

    Returns (aods, gains) of shape (n_paths,), or (count, n_paths): aod ~
    U[0, 2*pi), gain ~ CN(0, 1).  Each trial reads 4 ceil(3 n_paths / 4)
    uniforms in the layout above; every consumer (each chunk of
    ``semetrics.run_monte_carlo`` too) draws here, so the draw order is fixed
    in one place.
    """
    steps = _counter_steps(n_paths)
    u = _philox(stream, steps * (1 if count is None else count)).reshape(-1, 4 * steps)
    aods = TWO_PI * u[:, :n_paths]
    radii = np.sqrt(-np.log1p(-u[:, n_paths:2 * n_paths]))
    gains = radii * np.exp(1j * TWO_PI * u[:, 2 * n_paths:3 * n_paths])
    return (aods[0], gains[0]) if count is None else (aods, gains)
