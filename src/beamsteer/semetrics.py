"""Per-stream spectral efficiency and the Monte Carlo estimator.

The estimator draws pure-LoS realizations (one path per user), builds the
requested beamformer, and averages log2(1 + SINR) over trials and streams;
its standard error is over trials, whose streams share one R.  Noise power
is unity; rho is the per-user transmit SNR, so it multiplies both terms.

A run passes once over (user count K, chunk) pairs.  A trial's draws depend
only on (seed, trial, K), never on n_tx or the scheme: trial t owns a fixed
stretch of counters of the Philox stream keyed by the seed (the layout is in
``channel``), so a chunk of trials [s, s + count) is one
``sample_path_params(child_rng(seed, K, s), K, count)`` call, which any
process can make in any order.  ``run_monte_carlo`` takes every cell (user
count, array, schemes, SNR points) of a command, draws each chunk of each K
once, with ``_draw_chunk``, runs the gain stage of that chunk on every array
of its K, with ``_gain_chunk``, and reduces each scheme's gains to per-trial
means, which ``_fold`` adds to running sums per (cell, scheme, point) in trial
order.  No gains or means outlive their chunk.  With workers, chunk j runs in
the calling process when j % P == 0 and otherwise in one process pool of P - 1
workers, P the worker count capped by the chunk and CPU counts.  The gain
stage turns a chunk into each scheme's per-stream signal |h_k f_k|^2 and
interference sum_{i != k} |h_k f_i|^2 on one array: a (K, count) signal, and a
(K, count) interference for ABS alone; HBS and NoInterference carry the scalar
0.0.  A chunk's Gram kernel is computed once for all the schemes that read it.

The gain stage is rho-free and works on K x K arrays alone.  In the pure-LoS
model a trial's equivalent channel is H_hat = sqrt(N) diag(g) G, with G =
A^H A the Gram matrix of the steering columns.  G = P^H R P, where
P = diag(e^{j(N-1)zeta_k/2}) is unitary and R, the real, symmetric
Dirichlet kernel of ``_gram``, has unit diagonal, so |G_ki| = |R_ki|,
(G^-1)_kk = (R^-1)_kk and the Frobenius norms of G and G^-1 are those of R
and R^-1: no scheme needs a complex exponential or an n_tx-long vector.
No scheme reads the phase of g, so a trial is drawn as its angles and its
powers x_k = |g_k|^2.  With the power N x_k as signal, NoInterference has no
interference and needs no angles, and ABS has the interference
N x_k sum_{i != k} R_ki^2.  The hybrid scheme (ZF on H_hat, then vector
normalization) has the signal N x_k / (R^-1)_kk and no interference, from
one real float64 inverse per chunk, ``_gram_inverse``.  The kernel runs
trials last: a chunk's R is one (K, K, T) array, so every elementwise step of
R, of its inverse and of the sums over them covers a contiguous run of T
trials, as do the (K, T) gains, so no product mixes layouts.  A trial is
flagged if its inverse is untrusted: a condition bound eps64 ||R||_F ||R^-1||_F
above 5e-10, or NaN, as the zero pivot of an exactly singular R gives.  Its
signal is |h_k . f_k|^2 from its own n_tx-long channel rows h, of gains
sqrt(x_k) with zero phase, and the extended-precision chain's F =
``hbs_beamformer_set``; its interference stays zero, as on every HBS trial.
``MonteCarloEstimate.n_fallback`` counts the flagged trials.  A draw that
chain finds singular is redrawn from the trial's next resample stream: the
same steps with the attempt 1, 2, ... in its counter words; ``n_resampled``
counts the redraws.  The redraw stays local to the cell: the chunk's draws,
which the other arrays of its K read, are never written.  SNR enters only in
the SE reduction ``se_from_gains``, so one simulation serves a whole SNR
grid; at each point a chunk's SE goes through one buffer of its gains' size
(two with ABS's denominator), and each trial's K streams are averaged in
order.  An SNR point is an ``SnrPoint``, one linear value that its
constructor checks to be finite and positive; ``check_cell`` checks every
other input of a cell before anything is drawn.

Per-trial results come from each trial's own counters and are summed in one
sequential pass in trial order, so the estimate is bit-identical regardless
of worker count, chunk size, execution order or the other cells, on one numpy
build and SIMD target; across targets, whose float64 log1p can differ by an
ulp, values agree to rounding, and n_resampled and n_fallback are equal.
"""

from __future__ import annotations

import enum
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from .arrays import ArrayConfig, phase_progression, steering_vector
from .beamforming import DegeneratePrecoder, SingularEquivalentChannel, hbs_beamformer_set
from .channel import child_rng, sample_path_params

_CHUNK = 2048
# Bound on eps64 * cond(G), the scale of the float64 Gram inverse's forward
# error, above which a trial goes through the extended-precision chain.  At
# seed 2026 (32x5 and 128x5, 50000 trials) the first float64 SE at rho = 1000
# off a long-double reference by over 1e-9 has a bound of 1.2e-9 (1.8e-9 off).
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
    n_resampled: int
    n_fallback: int  # trials computed by the extended-precision chain


def se_from_gains(signal, interference, rho_lin: float, out=None) -> np.ndarray:
    """Per-stream SE log2(1 + SINR), bits/s/Hz, from |h_k f_k|^2 and
    sum_{i != k} |h_k f_i|^2, arrays or scalars that broadcast: SINR =
    rho s / (rho i + 1), through log1p, which keeps the digits of a small SINR
    that 1 + SINR loses.  ``out``, a pair of float arrays of the broadcast
    shape, takes the SE and the denominator, so that a caller that reduces
    many SNR points makes no new array; by default they are new.  A scalar
    zero interference needs no denominator (x / 1.0 == x): it may be None."""
    se, den = out or (np.empty(np.broadcast_shapes(np.shape(signal), np.shape(interference))),
                      None)
    np.multiply(rho_lin, signal, out=se)
    if np.ndim(interference) or interference:
        den = np.multiply(rho_lin, interference, out=den)
        den += 1.0
        se /= den
    np.log1p(se, out=se)
    se /= np.log(2.0)
    return se


def _abs_interference(r, power):
    """ABS interference of the (K, K, T) kernel R: the (K, T) power times each
    row's sum over i != k of R_ki^2, each term a contiguous row of T squared
    into one (T,) buffer and added in order of i, as ``m.sum(axis=1)`` adds a
    squared copy m, then scaled in place; the row sum minus 1 would cancel the
    digits of a leakage far below it."""
    sums, square = np.zeros(r.shape[1:]), np.empty(r.shape[2:])
    for k, i in permutations(range(len(r)), 2):
        sums[k] += np.multiply(r[k, i], r[k, i], out=square)
    return np.multiply(sums, power, out=sums)


def _los(aods, x, config):
    """LoS channel rows (K, n_tx) of one trial: sqrt(n_tx) g_k a_k^H, with the
    gain g_k = sqrt(x_k) of zero phase."""
    return np.sqrt(config.n_tx) * np.sqrt(x)[:, None] * steering_vector(aods, config).conj().T


def _gram(aods, config):
    """Real Gram matrices R of the unit-norm steering columns, trials last:
    (K, K, T) from (T, K) angles, (K, K) from one trial's (K,).

    R_ki = sin(N delta/2) / (N sin(delta/2)), delta = zeta_i - zeta_k, is built
    inside R, one lag i > k at a time: the ratio in the contiguous row R[k, i],
    its denominator (delta, then N sin(delta/2)) in the row R[i, k] until that
    row takes the mirror (sin is odd: the bytes of the lag -delta).  numpy's
    sine reduces its argument against pi exactly, so near a lag of +-2 pi both
    sines keep their relative accuracy and the ratio does not cancel.  Where
    sin(delta/2) is zero the users' columns coincide: R is 1.
    """
    n_tx = config.n_tx
    r = np.empty(aods.shape[-1:] + aods.shape[::-1])  # made before zeta: a lower peak RSS
    zeta = phase_progression(aods.T, config)
    r[range(len(r)), range(len(r))] = 1.0
    for k, i in combinations(range(len(r)), 2):
        ratio, den = r[k, i, ...], r[i, k, ...]
        np.subtract(zeta[i], zeta[k], out=den)
        np.multiply(n_tx, den, out=ratio)
        ratio /= 2.0
        np.sin(ratio, out=ratio)
        den /= 2.0
        np.sin(den, out=den)
        den *= n_tx
        coincident = den == 0.0
        den[coincident] = 1.0
        ratio /= den
        ratio[coincident] = 1.0
        den[...] = ratio
    return r


def _gram_inverse(r):
    """Inverts trials-last (K, K, T) Gram kernels R in place and returns r, by
    Gauss-Jordan elimination vectorised over the trials: each step is one
    entry's contiguous row of T, R_ji -= R_jk R_ki through one (T,) buffer, and
    the pivot column is overwritten last, so no copy of it is kept.  R is
    symmetric positive definite with unit diagonal, so it needs no pivoting;
    an exactly singular R meets a zero pivot, which leaves that trial's
    inverse, and no other, non-finite."""
    step = np.empty(r.shape[2:])
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(len(r)):
            rest = [i for i in range(len(r)) if i != k]
            for i in rest:
                r[k, i] /= r[k, k]
            np.divide(1.0, r[k, k], out=r[k, k])
            for j in rest:
                for i in rest:
                    r[j, i] -= np.multiply(r[j, k], r[k, i], out=step)
                r[j, k] *= r[k, k]
                np.subtract(0.0, r[j, k], out=r[j, k])  # R_jk = 0 gives +0, not -0
    return r


def _frobenius(m):
    """||M||_F of each trial of a trials-last (K, K, T) array: the squares summed
    in row-major order of (k, i), as ``(m ** 2).sum(axis=(0, 1))`` sums them,
    through one (T,) buffer instead of a squared copy of m."""
    rows = m.reshape(-1, m.shape[-1])
    total, square = rows[0] * rows[0], np.empty(m.shape[-1])
    for row in rows[1:]:
        total += np.multiply(row, row, out=square)
    return np.sqrt(total)


def _draw_chunk(seed, n_users, start, count):
    """(aods, x) of trials [start, start + count), from one kernel call."""
    return sample_path_params(child_rng(seed, n_users, start), n_users, count)


def _gain_chunk(aods, x, config, schemes, seed, start):
    """Gain stage on trials [start, start + len(aods)) of ``seed``, drawn as
    (aods, x): per scheme, their (K, count) signal, their interference,
    (K, count) for ABS and the scalar 0.0 for HBS and NoInterference, the
    number of resampled draws and the number of extended-precision trials.
    The Gram kernel R is computed once for the schemes that read it; HBS
    inverts it in place, so it runs after ABS, whatever the order given."""
    gram = _gram(aods, config) if {Scheme.ABS, Scheme.HBS} & set(schemes) else None
    power = np.ascontiguousarray(x.T)
    power *= config.n_tx
    out = {}
    for scheme in sorted(schemes, key=lambda s: s is Scheme.HBS):
        if scheme is Scheme.ABS:
            out[scheme] = (power, _abs_interference(gram, power), 0, 0)
        elif scheme is Scheme.HBS:
            out[scheme] = _hbs_chunk(aods, x, config, gram, power, seed, start)
        else:
            out[scheme] = (power, 0.0, 0, 0)
    return [out[scheme] for scheme in schemes]


def _hbs_chunk(aods, x, config, gram, power, seed, start):
    """``_gain_chunk``'s HBS entry; it inverts the chunk's Gram kernels in place.
    A flagged trial's signal is the chain's K inner products |h_k . f_k|^2."""
    n_users = aods.shape[1]
    norm = _frobenius(gram)
    inv = _gram_inverse(gram)
    # ZF with vector normalization leaves stream k the signal
    # N x_k / (R^-1)_kk and no leakage: G w_i = e_i / (sqrt(N) g_i).
    # ||R||_F ||R^-1||_F >= cond_2(R), and eps64 * cond_2 is the scale of the
    # float64 inverse's forward error.  As (R^-1)_kk >= 1, a non-positive or
    # non-finite diagonal entry comes only with a bound far above it, or NaN.
    cond = norm * _frobenius(inv)
    flagged = np.nonzero(~(_EPS64 * cond <= _FORWARD_TOL))[0]
    signal = np.empty_like(power)
    with np.errstate(invalid="ignore", divide="ignore"):
        for k in range(n_users):  # row by row: the diagonal of inv is no contiguous block
            np.divide(power[k], inv[k, k], out=signal[k])

    n_resampled = 0
    for i in flagged:
        # a redraw rebinds the trial's own arrays; the chunk's draws stay as drawn
        trial_aods, trial_x = aods[i], x[i]
        for attempt in range(_MAX_ATTEMPTS):
            if attempt:
                trial_aods, trial_x = sample_path_params(
                    child_rng(seed, n_users, start + i, attempt), n_users)
            h = _los(trial_aods, trial_x, config)
            try:
                f = hbs_beamformer_set(h, trial_aods, config)
            except (SingularEquivalentChannel, DegeneratePrecoder):
                n_resampled += 1
                continue
            # the chain's signal alone: its leakage is rounding, and HBS has none
            signal[:, i] = np.abs(np.einsum("kn,nk->k", h, f)) ** 2
            break
        else:
            raise ValueError(f"HBS cannot separate K = {n_users} users on n_tx = {config.n_tx} at "
                             f"spacing {config.spacing:g}: trial {start + i} is singular at "
                             f"all {_MAX_ATTEMPTS} draws")
    return signal, 0.0, n_resampled, len(flagged)


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


def _cpus():
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chunk_job(seed, n_users, start, count, arrays):
    """Trials [start, start + count) of one user count, drawn once, on each
    (config, schemes, snrs) of ``arrays``: lazily, per array and scheme in
    order, ``_trial_means`` of its gains, n_resampled and n_fallback."""
    aods, x = _draw_chunk(seed, n_users, start, count)
    return ((_trial_means(*gains, snrs), resampled, fallback) for config, schemes, snrs in arrays
            for *gains, resampled, fallback in _gain_chunk(aods, x, config, schemes, seed, start))


def _pooled_job(*job):
    return list(_chunk_job(*job))  # a pool worker sends the whole chunk back


def _trial_means(signal, interference, snrs):
    """Per SNR point, the (count,) mean SE of each trial's K streams: the SE rows
    of the (K, count) gains added in order of k, then divided by K.  One array a
    point stays under glibc's least mmap threshold (128 KiB): the heap serves it."""
    means = [np.zeros(signal.shape[1]) for _ in snrs]
    se, den = np.empty(signal.shape), np.empty(signal.shape) if np.ndim(interference) else None
    # A finite rho can still overflow rho * N |g|^2, which gives a non-finite
    # SE, or only the rho * interference of a stream, whose SE then reads 0.
    try:
        with np.errstate(over="raise"):
            for mean, rho in zip(means, snrs):
                for stream in se_from_gains(signal, interference, rho.rho_linear, out=(se, den)):
                    mean += stream
                mean /= len(se)
    except FloatingPointError:
        raise ValueError(f"SE at SNR {10.0 * np.log10(rho.rho_linear):.6g} dB cannot be "
                         f"computed: rho * n_tx |g|^2 overflows float64") from None
    return means


def run_monte_carlo(cells, trials: int, seed: int, workers: int = 1):
    """Monte Carlo estimates of the expected per-stream SE of each cell.

    A cell is (n_users, ArrayConfig, schemes, snrs): ``schemes`` a non-empty
    sequence of distinct ``Scheme``, ``snrs`` a non-empty sequence of
    ``SnrPoint`` or linear SNRs, each finite and positive; every cell is
    checked before anything is drawn, and a point at which rho times a gain
    overflows float64 raises ``ValueError``.  Each cell's trials are
    simulated once for all its schemes and every point is reduced from the
    same gains.  The result holds, per cell, per scheme in the given order, a
    tuple of one ``MonteCarloEstimate`` per point, in the given order; a
    scheme's estimates are those of a call with that cell and scheme alone.
    Streams of one trial are exchangeable under i.i.d. user statistics, so
    each estimate is the mean of the per-trial means of the streams.

    Chunk j of the (user count, chunk) list runs in this process when
    j % P == 0, and otherwise in one pool of P - 1 worker processes, all
    submitted up front; P is ``workers`` capped by the chunk count and the
    CPUs this process may use.  Chunks are folded in job order, so the
    estimates depend on neither P nor the chunk size.  If a chunk raises, the
    queued chunks are cancelled and the pool is shut down before the error
    propagates.
    """
    cells = [(n_users, config, *check_cell(config, n_users, schemes, snrs, trials))
             for n_users, config, schemes, snrs in cells]
    groups = {}  # n_users -> indices of its cells
    for i, cell in enumerate(cells):
        groups.setdefault(cell[0], []).append(i)
    jobs = [(seed, k, s, min(_CHUNK, trials - s), [cells[i][1:] for i in groups[k]])
            for k in groups for s in range(0, trials, _CHUNK)]
    processes = max(1, min(workers, len(jobs), _cpus()))
    pool = ProcessPoolExecutor(max_workers=processes - 1) if processes > 1 else None
    totals = [[[] for _ in cell[2]] for cell in cells]  # per cell and scheme: _fold's sums
    try:
        queued = {j: pool.submit(_pooled_job, *job) for j, job in enumerate(jobs) if j % processes}
        for j, job in enumerate(jobs):
            _fold([total for i in groups[job[1]] for total in totals[i]],
                  queued.pop(j).result() if j in queued else _chunk_job(*job))
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)
    return [tuple(_from_sums(*total, trials) for total in cell) for cell in totals]


def _fold(totals, result):
    """Adds a ``_chunk_job`` result to the [shift, sums, n_resampled, n_fallback]
    of each (cell, scheme): per point, trial 0's mean and the sum of d + i d^2,
    d a trial's mean less that shift.  Each sum is carried into the chunk's first
    term and run on by ``np.add.accumulate``, one pass in trial order per part."""
    for total, (means, n_resampled, n_fallback) in zip(totals, result):
        shift, sums, resampled, fallback = total or (
            np.array([row[0] for row in means]), np.zeros(len(means), complex), 0, 0)
        terms = np.empty(len(means[0]), complex)
        for p, row in enumerate(means):
            np.subtract(row, shift[p], out=terms.real)
            np.multiply(terms.real, terms.real, out=terms.imag)
            terms[0] += sums[p]
            sums[p] = np.add.accumulate(terms, out=terms)[-1]
        total[:] = shift, sums, resampled + n_resampled, fallback + n_fallback


def _from_sums(shift, sums, n_resampled, n_fallback, trials):
    """One scheme's estimate at each point from its ``_fold`` sums: the mean of the
    per-trial means, and their std(ddof=1) over sqrt(trials) as the standard error."""
    std = np.sqrt(np.maximum(sums.imag - sums.real ** 2 / trials, 0.0) / max(trials - 1, 1))
    return tuple(MonteCarloEstimate(float(mean), float(error), n_resampled, n_fallback)
                 for mean, error in zip(shift + sums.real / trials, std / np.sqrt(trials)))
