"""Multi-user mmWave massive-MISO beamsteering: Monte Carlo link simulation
and closed-form spectral-efficiency bounds."""

from .arrays import ArrayConfig
from .bounds import abs_saturation_bound, hbs_se_approx
from .semetrics import MonteCarloEstimate, Scheme, SnrPoint, run_monte_carlo

__version__ = "0.1.0"
