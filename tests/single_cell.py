"""One cell through ``run_monte_carlo``, for tests that simulate a single
(n_users, array) pair."""

from beamsteer.semetrics import run_monte_carlo


def run_cell(config, n_users, schemes, snrs, trials, seed, workers=1):
    """Per scheme, a tuple of one estimate per SNR point: the one cell of a
    ``run_monte_carlo`` call on that cell alone."""
    (estimates,) = run_monte_carlo([(n_users, config, schemes, snrs)], trials, seed, workers)
    return estimates
