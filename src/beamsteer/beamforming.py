"""Beamformer construction: analog steering, digital zero forcing, and the
vector-normalized hybrid composite.

The analog stage steers one constant-modulus beam per user at its LoS
angle.  The hybrid scheme multiplies that steering matrix by a digital ZF
precoder computed on the equivalent (post-steering) channel, then applies
per-column vector normalization so every composite column has unit power.

Near-coincident user angles make the equivalent channel ill conditioned
(cond ~ 1e8 within 10^4 K = 4 draws), and each float64 rounding inside the
ZF chain then leaks about eps64 * cond of interference.  The chain
therefore works in extended precision from the equivalent-channel product
through the composite and rounds to complex128 once.
"""

from __future__ import annotations

import numpy as np

from .arrays import ArrayConfig, steering_vector

# Working precision of the hybrid chain.  Its accuracy relies on this type
# being wider than complex128: x86-64 long double has eps 1.08e-19 against
# 2.2e-16.  Where long double is plain double (Windows, macOS on arm64) the
# chain still runs, but with float64 accuracy: float64 products alone leak
# 1.7e-8 on the worst draw of acceptance criterion 6, above its 1e-8 limit.
_EXT = np.clongdouble

# Relative pivot threshold below which elimination declares the equivalent
# channel singular (coincident user angles).
SINGULARITY_RTOL = 1e-12


class SingularEquivalentChannel(Exception):
    """Equivalent channel is singular or numerically near-singular."""


class DegeneratePrecoder(Exception):
    """A precoder column maps to the zero vector and cannot be normalized."""


def _invert(matrix: np.ndarray) -> np.ndarray:
    """Invert the K x K matrix by Gaussian elimination with partial pivoting.

    With one RF chain per stream the equivalent channel is square and its ZF
    pseudo-inverse H_hat^H (H_hat H_hat^H)^{-1} is H_hat^{-1}, computed
    directly: forming the Gram product would square the condition number.
    K is small (<= 8 in every experiment), so the explicit inverse is fine.
    The elimination runs in ``np.clongdouble`` and the inverse is returned
    in ``np.clongdouble``, unrounded: the caller decides where the single
    rounding to complex128 happens.  Elimination alone cannot restore digits
    lost before it, so the input should itself be an extended-precision
    product (see ``hbs_beamformer_set``).
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"equivalent channel must be square (K = n_rf), got {matrix.shape}")
    k = matrix.shape[0]
    aug = np.concatenate([matrix.astype(_EXT), np.eye(k, dtype=_EXT)], axis=1)
    threshold = SINGULARITY_RTOL * np.abs(aug[:, :k]).max()
    for col in range(k):
        pivot_row = col + int(np.argmax(np.abs(aug[col:, col])))
        if np.abs(aug[pivot_row, col]) <= threshold:
            raise SingularEquivalentChannel(
                f"pivot {np.abs(aug[pivot_row, col]):.3e} below threshold {threshold:.3e}")
        if pivot_row != col:
            aug[[col, pivot_row]] = aug[[pivot_row, col]]
        aug[col] /= aug[col, col]
        for row in range(k):
            if row != col:
                aug[row] -= aug[row, col] * aug[col]
    return aug[:, k:]


def _normalize(w: np.ndarray, rf: np.ndarray) -> np.ndarray:
    """Extended-precision W with each column scaled so F_RF w_k has unit norm."""
    w = np.asarray(w, _EXT)
    composite = np.asarray(rf, _EXT) @ w
    norms = np.sqrt((composite.real ** 2 + composite.imag ** 2).sum(axis=0))
    if np.any(norms == 0.0):
        raise DegeneratePrecoder("composite column is the zero vector")
    return w / norms


def hbs_beamformer_set(h_matrix: np.ndarray, angles, config: ArrayConfig) -> np.ndarray:
    """Full hybrid chain: steering, equivalent channel, ZF, vector normalization.

    ``angles`` is a non-empty 1-D sequence of the K users' angles and
    ``h_matrix`` their (K, n_tx) channel rows; any other shape raises
    ValueError.  Returns the n_tx x K composite F = F_RF W (complex128), one
    unit-norm column per stream.  H_hat = H F_RF, its inverse, the column
    normalization and F_RF W all stay in ``np.clongdouble``; the composite is
    rounded to complex128 once, at the end.  Rounding any intermediate
    instead costs about eps64 * cond(H_hat) of interference suppression
    (1.7e-8 leakage at cond 2e8).
    """
    angles, h_matrix = np.asarray(angles, float), np.asarray(h_matrix)
    if angles.ndim != 1 or not angles.size or h_matrix.shape != (angles.size, config.n_tx):
        raise ValueError(f"need 1-D angles of K >= 1 users and H of shape (K, n_tx), got "
                         f"angles {angles.shape} and H {h_matrix.shape} at n_tx = {config.n_tx}")
    rf = steering_vector(angles, config).astype(_EXT)  # (n_tx, K)
    w = _normalize(_invert(h_matrix.astype(_EXT) @ rf), rf)
    return (rf @ w).astype(complex)
