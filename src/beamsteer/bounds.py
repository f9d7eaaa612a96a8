"""Closed-form spectral-efficiency bounds and their building blocks.

Implements the zero-order Bessel function of the first kind, the expected
squared cross-correlation of two independently-steered ULA responses, the
high-SNR saturation level of multi-user analog beamsteering, and the
Log-Rayleigh approximation of the zero-forcing hybrid scheme's SE.
"""

from __future__ import annotations

import math

import numpy as np

from .arrays import ArrayConfig
from .semetrics import SnrPoint

EULER_GAMMA = float(np.euler_gamma)

# J0 Hankel expansion coefficients c_m = prod_{j<=m}(2j-1)^2 / (m! 8^m).
_HANKEL_C = [1.0]
for _m in range(1, 26):
    _HANKEL_C.append(_HANKEL_C[-1] * (2 * _m - 1) ** 2 / (_m * 8.0))

_SERIES_CUTOFF = 12.0


def _j0_series(x):
    # Power series sum_m (-x^2/4)^m / (m!)^2; usable in float64 up to the
    # cutoff (worst-case cancellation there costs ~1e-12 absolute).
    z = -(x * x) / 4.0
    term = np.ones_like(x)
    acc = np.ones_like(x)
    for m in range(1, 45):
        term = term * z / (m * m)
        acc = acc + term
    return acc


def _j0_asymptotic(x):
    # Hankel expansion, truncated where the terms at the cutoff stop
    # shrinking; error there is ~5e-13 and decreases with x.
    xi = 1.0 / x
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    sign = 1.0
    for j in range(12):
        p = p + sign * _HANKEL_C[2 * j] * xi ** (2 * j)
        q = q + sign * _HANKEL_C[2 * j + 1] * xi ** (2 * j + 1)
        sign = -sign
    chi = x - np.pi / 4.0
    return np.sqrt(2.0 / (np.pi * x)) * (np.cos(chi) * p + np.sin(chi) * q)


def bessel_j0(x):
    """Zero-order Bessel function of the first kind, within 7e-13 absolute on [0, 450].

    Accepts scalars or arrays; J0 is even, so the sign of x is irrelevant.
    """
    x_arr = np.abs(np.asarray(x, dtype=float))
    out = np.empty_like(x_arr)
    small = x_arr < _SERIES_CUTOFF
    out[small] = _j0_series(x_arr[small])
    out[~small] = _j0_asymptotic(x_arr[~small])
    return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


def _interference_sum(n_tx: int, spacing: float) -> float:
    """S = 1 + 2 sum_{i=1}^{n_tx-1} (1 - i/n_tx) J0(2*pi*d*i)^2, the terms
    summed exactly (``math.fsum``, correctly rounded in any order)."""
    config = ArrayConfig(n_tx, spacing)  # the array checks the simulation applies
    idx = np.arange(1, config.n_tx)
    terms = 2.0 * (1.0 - idx / config.n_tx) * bessel_j0(2.0 * np.pi * config.spacing * idx) ** 2
    return math.fsum([1.0, *terms])


def cross_correlation_expectation(n_tx: int, spacing: float) -> float:
    """E|a(phi1)^H a(phi2)|^2 over independent uniform angles on [0, 2*pi).

    Expanding |a^H a|^2 into lag terms and using E[cos(z sin phi)] = J0(z)
    gives S / n_tx for unit-norm steering vectors (each of the n_tx lag-0
    terms contributes 1/n_tx^2).
    """
    return _interference_sum(n_tx, spacing) / n_tx


def abs_saturation_bound(n_tx: int, spacing: float, n_users: int) -> float:
    """High-SNR saturation level of the analog scheme's per-stream SE, b/s/Hz.

    log2(1 + n_tx^2 / ((K-1)^2 S)); the K = 2 case is the single-interferer
    specialization.
    """
    if n_users < 2:
        raise ValueError("saturation bound needs at least one interferer (K >= 2)")
    s = _interference_sum(n_tx, spacing)
    return math.log2(1.0 + n_tx**2 / ((n_users - 1) ** 2 * s))


def hbs_se_approx(rho, n_tx: int) -> float:
    """Log-Rayleigh approximation of the hybrid scheme's per-stream SE, b/s/Hz.

    E[log2(rho*n_tx |alpha|^2)] with alpha ~ CN(0, 1), which is
    log2(rho*n_tx) - gamma/ln 2 (|alpha|^2 ~ Exp(1), E ln|alpha|^2 = -gamma).
    Tight for rho*n_tx >> 1; undershoots at low SNR.  ``rho`` is an
    ``SnrPoint`` or a linear SNR; both inputs get the simulation's checks,
    and a rho * n_tx that overflows float64 raises ``ValueError``.
    """
    rho_lin = (rho if isinstance(rho, SnrPoint) else SnrPoint(float(rho))).rho_linear
    config = ArrayConfig(n_tx)
    value = math.log2(rho_lin * config.n_tx) - EULER_GAMMA / math.log(2.0)
    if not math.isfinite(value):
        raise ValueError(f"HBS approximation at SNR {10.0 * math.log10(rho_lin):.6g} dB is "
                         f"not finite: rho * n_tx overflows float64")
    return value
