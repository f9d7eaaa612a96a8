import numpy as np
import pytest

from beamsteer.arrays import ArrayConfig, phase_progression, steering_vector


def test_phase_progression_known_angles():
    cfg = ArrayConfig(n_tx=4, spacing=0.5)
    assert phase_progression(0.0, cfg) == 0.0
    assert phase_progression(np.pi / 2, cfg) == pytest.approx(np.pi, abs=1e-15)
    assert phase_progression(np.pi / 6, cfg) == pytest.approx(np.pi / 2, abs=1e-12)


def test_phase_progression_scales_with_spacing():
    assert phase_progression(0.3, ArrayConfig(2, spacing=1.0)) == pytest.approx(
        2 * phase_progression(0.3, ArrayConfig(2, spacing=0.5)))


def test_steering_single_element():
    assert np.allclose(steering_vector(1.234, ArrayConfig(1)), [1.0])


def test_steering_broadside():
    a = steering_vector(0.0, ArrayConfig(4, 0.5))
    assert np.allclose(a, [0.5, 0.5, 0.5, 0.5])


def test_steering_endfire_two_elements():
    a = steering_vector(np.pi / 2, ArrayConfig(2, 0.5))
    assert np.allclose(a, np.array([1.0, -1.0]) / np.sqrt(2), atol=1e-12)


def test_unit_norm_and_self_alignment():
    cfg = ArrayConfig(32, 0.5)
    for phi in np.linspace(-7, 7, 41):
        a = steering_vector(phi, cfg)
        assert abs(np.linalg.norm(a) - 1.0) < 1e-12
        assert abs(a.conj() @ a - 1.0) < 1e-12


def test_periodicity():
    cfg = ArrayConfig(16, 0.5)
    for phi in (0.1, 2.0, 5.5):
        assert np.allclose(steering_vector(phi, cfg),
                           steering_vector(phi + 2 * np.pi, cfg), atol=1e-12)


def test_vectorized_angles_match_scalar():
    cfg = ArrayConfig(8, 0.5)
    phis = np.array([0.1, 1.0, 4.0])
    stacked = steering_vector(phis, cfg)
    assert stacked.shape == (8, 3)
    for j, phi in enumerate(phis):
        assert np.allclose(stacked[:, j], steering_vector(phi, cfg))


@pytest.mark.parametrize("kwargs", [
    {"n_tx": 0}, {"n_tx": -3}, {"n_tx": 2.5},
    {"n_tx": 4, "spacing": 0.0}, {"n_tx": 4, "spacing": -1.0},
    {"n_tx": 4, "spacing": float("nan")},
    {"n_tx": 8, "spacing": 1e308},  # phases overflow to inf
])
def test_invalid_config_rejected(kwargs):
    with pytest.raises(ValueError):
        ArrayConfig(**kwargs)
