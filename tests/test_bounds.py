import numpy as np
import pytest
from scipy.integrate import quad

from beamsteer.arrays import ArrayConfig, steering_vector
from beamsteer.bounds import (EULER_GAMMA, abs_saturation_bound, bessel_j0,
                              cross_correlation_expectation, hbs_se_approx)
from beamsteer.semetrics import Scheme, SnrPoint

from j0_oracle import j0_series
from single_cell import run_cell


def test_j0_at_zero():
    assert bessel_j0(0.0) == 1.0


def test_j0_at_one():
    assert bessel_j0(1.0) == pytest.approx(0.7651976866, abs=1e-9)


def test_j0_first_zero():
    assert abs(bessel_j0(2.404825557695773)) < 1e-9


def test_j0_even():
    for x in (0.5, 3.0, 20.0, 100.0):
        assert bessel_j0(-x) == bessel_j0(x)


def test_j0_vs_series_oracle_sampled():
    xs = np.linspace(0.0, 450.0, 80)
    for x in xs:
        assert abs(bessel_j0(x) - j0_series(x)) < 1e-9


def test_j0_bounded_and_oscillates_with_oracle():
    xs = np.linspace(0.0, 450.0, 1000)
    vals = bessel_j0(xs)
    assert np.all(vals**2 <= 1.0 + 1e-12)
    for x, v in zip(xs[::25], vals[::25]):
        ref = j0_series(x)
        if abs(ref) > 1e-6:
            assert np.sign(v) == np.sign(ref)


def test_j0_array_input():
    xs = np.array([0.0, 1.0, 15.0])
    out = bessel_j0(xs)
    assert out.shape == (3,)
    assert out[1] == bessel_j0(1.0)


def test_cross_correlation_single_antenna():
    assert cross_correlation_expectation(1, 0.5) == 1.0


def test_cross_correlation_two_antennas_closed_form():
    j0_pi = j0_series(np.pi)
    assert cross_correlation_expectation(2, 0.5) == pytest.approx(
        (1 + j0_pi**2) / 2, abs=1e-9)


def quadrature_cross_correlation(n_tx, spacing, n_grid=1024):
    cfg = ArrayConfig(n_tx, spacing)
    phis = np.arange(n_grid) * 2 * np.pi / n_grid
    steer = steering_vector(phis, cfg)  # (n_tx, n_grid)
    gram = np.abs(steer.conj().T @ steer) ** 2
    return gram.mean()


def test_cross_correlation_vs_quadrature():
    for n_tx, d in [(2, 0.5), (8, 0.5), (16, 1.0), (32, 0.25)]:
        assert cross_correlation_expectation(n_tx, d) == pytest.approx(
            quadrature_cross_correlation(n_tx, d), abs=1e-4)


def test_cross_correlation_vs_monte_carlo():
    rng = np.random.default_rng(30)
    cfg = ArrayConfig(32, 0.5)
    n = 10**6
    phi1 = rng.uniform(0, 2 * np.pi, n)
    phi2 = rng.uniform(0, 2 * np.pi, n)
    m = np.arange(32)
    zd = 2 * np.pi * 0.5 * (np.sin(phi2) - np.sin(phi1))
    samples = np.abs(np.exp(1j * np.outer(zd, m)).sum(axis=1) / 32) ** 2
    closed = cross_correlation_expectation(32, 0.5)
    assert abs(closed - samples.mean()) < 3 * samples.std() / np.sqrt(n)


def test_cross_correlation_invalid():
    with pytest.raises(ValueError):
        cross_correlation_expectation(0, 0.5)
    with pytest.raises(ValueError):
        cross_correlation_expectation(4, -0.5)
    # a fractional antenna count is not an array
    for n_tx in (2.5, float("nan")):
        with pytest.raises(ValueError, match="n_tx"):
            cross_correlation_expectation(n_tx, 0.5)
        with pytest.raises(ValueError, match="n_tx"):
            abs_saturation_bound(n_tx, 0.5, 2)


@pytest.mark.parametrize("spacing", [float("nan"), float("inf"), 0.0, -1.0])
def test_spacing_must_be_positive_and_finite(spacing):
    with pytest.raises(ValueError, match="spacing"):
        cross_correlation_expectation(4, spacing)
    with pytest.raises(ValueError, match="spacing"):
        abs_saturation_bound(4, spacing, 2)


def test_saturation_bound_single_antenna():
    assert abs_saturation_bound(1, 0.5, 2) == pytest.approx(1.0)


def test_saturation_bound_k_scaling():
    b2 = abs_saturation_bound(32, 0.5, 2)
    b3 = abs_saturation_bound(32, 0.5, 3)
    arg2 = 2**b2 - 1
    assert b3 == pytest.approx(np.log2(1 + arg2 / 4), abs=1e-12)


def test_saturation_bound_monotonicity():
    values_n = [abs_saturation_bound(n, 0.5, 2) for n in (2, 4, 8, 16, 32, 128)]
    assert all(b > a for a, b in zip(values_n, values_n[1:]))
    values_k = [abs_saturation_bound(32, 0.5, k) for k in (2, 3, 4, 5, 8)]
    assert all(b < a for a, b in zip(values_k, values_k[1:]))


def test_saturation_bound_requires_interferer():
    with pytest.raises(ValueError):
        abs_saturation_bound(16, 0.5, 1)


def test_saturation_bound_vs_high_snr_simulation():
    # 32 antennas, 2 users, effectively infinite SNR
    bound = abs_saturation_bound(32, 0.5, 2)
    ((est,),) = run_cell(ArrayConfig(32, 0.5), 2, [Scheme.ABS],
                         [SnrPoint(1e6)], 50000, 77)
    assert abs(est.mean - bound) < 0.45


def test_log_rayleigh_zero_crossing():
    # hbs_se_approx(rho, N) = E log2(rho N |alpha|^2) with alpha ~ CN(0, 1),
    # which is zero at rho N = e^gamma
    assert hbs_se_approx(np.exp(EULER_GAMMA), 1) == pytest.approx(0.0, abs=1e-15)


def test_log_rayleigh_unit_scale():
    # E ln X for X Rayleigh(1) is (ln 2/2) * hbs_se_approx at rho N = 2
    expected = np.log(2) / 2 - EULER_GAMMA / 2
    assert expected == pytest.approx(0.0579658, abs=5e-7)
    assert np.log(2) / 2 * hbs_se_approx(2.0, 1) == pytest.approx(expected)
    rng = np.random.default_rng(32)
    samples = np.log(rng.rayleigh(1.0, 10**6))
    assert abs(samples.mean() - expected) < 4 * samples.std() / 1000
    alpha = (rng.standard_normal(10**6) + 1j * rng.standard_normal(10**6)) / np.sqrt(2)
    samples = np.log2(100.0 * 32 * np.abs(alpha) ** 2)
    assert abs(samples.mean() - hbs_se_approx(100.0, 32)) < 4 * samples.std() / 1000


def test_hbs_approx_doubling_slopes():
    base = hbs_se_approx(100.0, 64)
    assert hbs_se_approx(200.0, 64) - base == pytest.approx(1.0, abs=1e-9)
    assert hbs_se_approx(100.0, 128) - base == pytest.approx(1.0, abs=1e-9)


def exact_no_interference_se(rho_nt):
    val, err = quad(lambda x: np.log2(1 + rho_nt * x) * np.exp(-x), 0, np.inf)
    assert err < 1e-6
    return val


def test_hbs_approx_vs_exact_expectation():
    # error at rho*n_tx = 1e3 is 0.0106 and shrinks like 1/(rho*n_tx)
    for rho_nt, tol in ((1e3, 0.011), (1e4, 0.0015), (1e5, 0.0002)):
        approx = hbs_se_approx(rho_nt, 1)
        assert abs(approx - exact_no_interference_se(rho_nt)) <= tol
    # approximation degrades toward low SNR
    low_err = abs(hbs_se_approx(1.0, 1) - exact_no_interference_se(1.0))
    assert low_err > 0.1


def test_hbs_approx_vs_simulation_large_array():
    approx = hbs_se_approx(SnrPoint.from_db(30.0), 128)
    ((est,),) = run_cell(ArrayConfig(128, 0.5), 2, [Scheme.NO_INTERFERENCE],
                         [SnrPoint.from_db(30.0)], 50000, 78)
    assert abs(est.mean - approx) < 0.05


def test_hbs_approx_invalid():
    # unchecked, these give nan, inf or a value for no real array
    for rho, n_tx in ((-1.0, 16), (float("nan"), 16), (float("inf"), 16),
                      (100.0, float("nan")), (100.0, 2.5)):
        with pytest.raises(ValueError):
            hbs_se_approx(rho, n_tx)
