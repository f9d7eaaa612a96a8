"""Random draws of pure line-of-sight (LoS) channels.

Each user's channel is a single plane wave: departure angle uniform on
[0, 2*pi) and a circularly-symmetric complex Gaussian gain alpha with unit
second moment, so the row sqrt(n_tx) alpha a(aod)^H has E||h||^2 = n_tx.  No
spectral efficiency reads the phase of alpha, so this module draws only the
(aod, x) pairs, x = |alpha|^2 ~ Exp(1); ``semetrics`` builds what it needs
from them, and the tests' reference rows are in ``tests/los_reference.py``.

Stream layout.  A trial of K users uses 2K uniforms u on [0, 1): K angles
aod = 2 pi u, then K powers x = -log(1 - u).  They come from the
counter-based generator Philox4x32-10 (Salmon et al., SC'11) with the key
words (seed mod 2^32, seed >> 32): the master seed, in [0, 2**64).  The
counter of step s of resample attempt a is the four words (s mod 2^32,
s >> 32, a mod 2^32, a >> 32), used as is; its output words w, in order,
give the uniforms w 2^-32.  Trial t owns the steps [t m, (t + 1) m) with
m = ceil(K / 2), and the last 4m - 2K uniforms of a trial go unused.  A
redraw (attempt >= 1) reads the same steps under its own counter words,
never another trial's.  ``_philox`` computes the generator in numpy integer
arithmetic, so no process loads ``numpy.random``; the tests check it against
Random123's known-answer vectors.

What 32 bits cost: the angles lie on a lattice of 2 pi 2^-32 = 1.46e-9 rad,
so two users coincide or mirror exactly with a probability of about 2^-31
per pair and draw, and the power is cut at 32 ln 2 = 22.18, where Exp(1)
leaves a mass of 2.3e-10.

Reproducibility: trial t's draws depend only on (seed, K, t, attempt), so a
chunk of trials is one kernel call, and trials can run in any order,
chunking or across workers with identical results, on one numpy build and
SIMD target; across targets the powers' log1p can differ by an ulp.
"""

from __future__ import annotations

import operator

import numpy as np

TWO_PI = 2.0 * np.pi


def _counter_steps(n_paths: int) -> int:
    """Philox4x32 counter steps of one trial: ceil(2 n_paths / 4)."""
    return -(-n_paths // 2)


def child_rng(seed: int, n_paths: int, trial: int, attempt: int = 0):
    """Stream position of the first draw of ``trial`` (of ``n_paths`` users)
    and resample ``attempt``: the key, the attempt and the step, (seed,
    attempt, trial m).  The stream runs on into the trials that follow.

    Every draw gets its stream here, so this is where the seed is checked:
    it must fit the two 32-bit key words, [0, 2**64).
    """
    seed = operator.index(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return seed, attempt, trial * _counter_steps(n_paths)


# Philox4x32 round multipliers of counter words 0 and 2, and the Weyl
# increments of the two key words.
_PHILOX_M = (0xD2511F53, 0xCD9E8D57)
_PHILOX_W = (0x9E3779B9, 0xBB67AE85)
_PHILOX_ROUNDS = 10


def _philox(stream, steps: int):
    """The ``steps`` counter steps that follow ``stream`` as uniforms on
    [0, 1), (steps, 4).

    Words 0 and 2 (x, multiplied) and words 1 and 3 (y, xored in) are each
    stacked (2, steps) in uint64, so that one numpy call serves both halves
    of a round.  A 32 x 32 -> 64-bit product is exact in uint64, so a round is
    one multiply, one mask, one shift and two xors, in four (2, steps)
    buffers.
    """
    key, attempt, counter = stream
    lo32, shift = np.uint64(0xFFFFFFFF), np.uint64(32)
    m = np.array(_PHILOX_M, dtype=np.uint64)[:, None]
    x, y, lo = (np.empty((2, steps), dtype=np.uint64) for _ in range(3))
    hi = np.arange(2 * steps, dtype=np.uint64).reshape(2, steps)
    hi[0] += np.uint64(counter)  # the step indices
    np.bitwise_and(hi[0], lo32, out=x[0])
    np.right_shift(hi[0], shift, out=y[0])
    x[1], y[1] = attempt % 2**32, attempt >> 32
    for r in range(_PHILOX_ROUNDS):
        np.multiply(m, x, out=hi)
        np.bitwise_and(hi, lo32, out=lo)
        hi >>= shift
        # (x0, y0, x1, y1) <- (hi1 ^ y0 ^ k0, lo1, hi0 ^ y1 ^ k1, lo0), with
        # the key words bumped by their Weyl increments each round
        hi ^= y[::-1]
        hi ^= np.array([[((key >> 32) + r * _PHILOX_W[1]) % 2**32],
                        [(key + r * _PHILOX_W[0]) % 2**32]], dtype=np.uint64)
        x, y, hi, lo = hi[::-1], lo[::-1], x, y
    del hi, lo
    out = np.empty((steps, 4))
    for col, word in enumerate((x[0], y[0], x[1], y[1])):
        out[:, col] = word
    out *= 2.0**-32
    return out


def sample_path_params(stream, n_paths: int, count: int | None = None):
    """Draw one trial's n_paths (aod, x) pairs from ``stream`` (a
    ``child_rng`` position), or with ``count`` the next ``count`` trials,
    stacked.

    Returns (aods, x) of shape (n_paths,), or (count, n_paths): aod ~
    U[0, 2*pi), x = |alpha|^2 ~ Exp(1), both real.  Each trial reads
    4 ceil(n_paths / 2) uniforms in the layout above; every consumer (each
    chunk of ``semetrics.run_monte_carlo`` too) draws here, so the draw order
    is fixed in one place.
    """
    steps = _counter_steps(n_paths)
    u = _philox(stream, steps * (1 if count is None else count)).reshape(-1, 4 * steps)
    aods = TWO_PI * u[:, :n_paths]
    x = np.negative(u[:, n_paths:2 * n_paths])
    np.log1p(x, out=x)
    np.negative(x, out=x)
    return (aods[0], x[0]) if count is None else (aods, x)
