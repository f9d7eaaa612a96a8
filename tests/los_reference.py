"""Reference LoS channel rows, built one user at a time from the steering
vector, for the tests to compare the package against."""

from dataclasses import dataclass

import numpy as np

from beamsteer.arrays import ArrayConfig, steering_vector


@dataclass(frozen=True)
class PathParams:
    """One propagation path: complex amplitude and angle of departure (rad)."""

    gain: complex
    aod: float


def los_channel(path: PathParams, config: ArrayConfig) -> np.ndarray:
    """Pure LoS channel row: sqrt(n_tx) * alpha * a(phi)^H."""
    return np.sqrt(config.n_tx) * path.gain * steering_vector(path.aod, config).conj()
