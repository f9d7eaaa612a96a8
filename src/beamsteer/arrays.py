"""Uniform linear array geometry: phase progression and steering vectors.

Element spacing is stored pre-normalized by the wavelength (d/lambda), so
the phase progression is simply 2*pi*d*sin(phi) and no carrier frequency
appears anywhere downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ArrayConfig:
    """Transmit ULA geometry.

    Parameters
    ----------
    n_tx : int
        Number of transmit antennas.
    spacing : float
        Inter-element spacing in wavelengths (default: half wavelength).
    """

    n_tx: int
    spacing: float = 0.5

    def __post_init__(self):
        if not isinstance(self.n_tx, (int, np.integer)) or self.n_tx < 1:
            raise ValueError(f"n_tx must be a positive integer, got {self.n_tx!r}")
        # the largest phase formed, 4 pi d n_tx, must be finite (int <= float is exact)
        if not (self.spacing > 0 and
                self.n_tx <= float(np.finfo(float).max) / (4.0 * np.pi * float(self.spacing))):
            raise ValueError(f"spacing must be a positive real whose phase span 4 pi d n_tx "
                             f"is finite, got {self.spacing!r} at n_tx = {self.n_tx}")


def phase_progression(phi: float, config: ArrayConfig) -> float:
    """Inter-element phase shift 2*pi*d*sin(phi) for departure angle phi (rad)."""
    return 2.0 * np.pi * config.spacing * np.sin(phi)


def steering_vector(phi, config: ArrayConfig) -> np.ndarray:
    """Unit-norm ULA array response.

    Element m is exp(j*m*zeta(phi))/sqrt(n_tx).  Accepts a scalar angle
    (returns shape ``(n_tx,)``) or an array of angles (returns
    ``(n_tx, ...)`` with angle axes trailing).
    """
    zeta = np.asarray(phase_progression(phi, config))
    m = np.arange(config.n_tx).reshape((config.n_tx,) + (1,) * zeta.ndim)
    return np.exp(1j * m * zeta) / np.sqrt(config.n_tx)
