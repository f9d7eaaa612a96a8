import numpy as np
import pytest

from beamsteer.arrays import ArrayConfig, steering_vector
from beamsteer.beamforming import (DegeneratePrecoder, SingularEquivalentChannel, _invert,
                                   _normalize, hbs_beamformer_set)
from beamsteer.channel import child_rng, sample_path_params

from los_reference import PathParams, los_channel


def ext_product(left, right):
    """left @ right formed in extended precision, as the hybrid chain forms it."""
    return np.asarray(left, np.clongdouble) @ np.asarray(right, np.clongdouble)


def random_los_setup(rng, n_tx, n_users, spacing=0.5):
    cfg = ArrayConfig(n_tx, spacing)
    angles = rng.uniform(0, 2 * np.pi, n_users)
    gains = (rng.standard_normal(n_users) + 1j * rng.standard_normal(n_users)) / np.sqrt(2)
    h = np.stack([los_channel(PathParams(g, a), cfg) for g, a in zip(gains, angles)])
    return cfg, angles, gains, h


def test_abs_gain_onto_own_channel():
    cfg = ArrayConfig(16, 0.5)
    h = los_channel(PathParams(1.0, 0.9), cfg)
    assert abs(h @ steering_vector(0.9, cfg)) == pytest.approx(4.0, abs=1e-12)


def test_rf_matrix_columns():
    # the RF matrix F_RF is the steering vectors of a 1-D angle array
    cfg = ArrayConfig(8, 0.5)
    rf = steering_vector(np.array([0.4]), cfg)
    assert rf.shape == (8, 1)
    assert np.allclose(rf[:, 0], steering_vector(0.4, cfg))
    rf2 = steering_vector(np.array([1.0, 1.0]), cfg)
    assert np.allclose(rf2[:, 0], rf2[:, 1])
    gram = rf2.conj().T @ rf2
    assert np.allclose(np.diag(gram).real, 1.0, atol=1e-12)


def test_rf_matrix_empty_rejected():
    # an empty, scalar or 2-D angle set gives no K x K equivalent channel, nor
    # do channel rows that are not one per angle or not n_tx long
    cfg = ArrayConfig(4)
    h = los_channel(PathParams(1.0, 0.3), cfg)[None, :]
    cases = [(h, []), (h, 0.3), (h, [[0.3]]),
             (np.vstack([h, h]), [0.3]), (h[:, :3], [0.3]), (np.ones((1, 5)), [0.3])]
    for h_matrix, angles in cases:
        with pytest.raises(ValueError):
            hbs_beamformer_set(h_matrix, angles, cfg)


def test_equivalent_channel_matched_single_user():
    cfg = ArrayConfig(16, 0.5)
    alpha = 0.7 - 0.3j
    h = los_channel(PathParams(alpha, 1.4), cfg)[None, :]
    h_hat = ext_product(h, steering_vector(np.array([1.4]), cfg)).astype(complex)
    assert h_hat[0, 0] == pytest.approx(np.sqrt(16) * alpha, abs=1e-12)


def test_equivalent_channel_matches_dense_product():
    rng = np.random.default_rng(11)
    cfg, angles, _, h = random_los_setup(rng, 16, 3)
    rf = steering_vector(angles, cfg)
    h_hat = ext_product(h, rf).astype(complex)
    expected = np.array([[sum(h[k, m] * rf[m, i] for m in range(16))
                          for i in range(3)] for k in range(3)])
    assert np.allclose(h_hat, expected, atol=1e-12)


def test_equivalent_channel_dimension_mismatch():
    # H F_RF needs H's rows to be n_tx long: 4 against an array of 5
    with pytest.raises(ValueError):
        hbs_beamformer_set(np.ones((2, 4)), [0.1, 0.2], ArrayConfig(5))


def test_zf_scalar():
    assert np.allclose(_invert(np.array([[2.0]])).astype(complex), [[0.5]])


def test_zf_diagonal():
    d = np.diag([2.0, 1j, -0.5 + 0.5j])
    assert np.allclose(_invert(d).astype(complex), np.diag(1 / np.diag(d)), atol=1e-12)


def test_zf_residual_random():
    rng = np.random.default_rng(12)
    h_hat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    w = _invert(h_hat).astype(complex)
    assert np.abs(h_hat @ w - np.eye(4)).max() < 1e-10


def test_zf_scale_equivariance():
    rng = np.random.default_rng(13)
    h_hat = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    w = _invert(h_hat).astype(complex)
    w_scaled = _invert(5.0 * h_hat).astype(complex)
    assert np.allclose(w_scaled, w / 5.0, atol=1e-12)


def test_zf_singular_on_coincident_angles():
    cfg = ArrayConfig(8, 0.5)
    rng = np.random.default_rng(14)
    _, _, gains, _ = random_los_setup(rng, 8, 2)
    angles = np.array([0.3, 0.3])
    h = np.stack([los_channel(PathParams(g, a), cfg) for g, a in zip(gains, angles)])
    h_hat = ext_product(h, steering_vector(angles, cfg)).astype(complex)
    with pytest.raises(SingularEquivalentChannel):
        _invert(h_hat)


def test_zf_non_square_rejected():
    with pytest.raises(ValueError):
        _invert(np.ones((2, 3)))


def test_vector_normalize_unit_composite_columns():
    rng = np.random.default_rng(15)
    cfg, angles, _, h = random_los_setup(rng, 32, 3)
    rf = steering_vector(angles, cfg)
    h_hat = ext_product(h, rf).astype(complex)
    w = _normalize(_invert(h_hat).astype(complex), rf).astype(complex)
    assert np.allclose(np.linalg.norm(rf @ w, axis=0), 1.0, atol=1e-10)


def test_vector_normalize_scale_invariance():
    rng = np.random.default_rng(16)
    cfg, angles, _, _ = random_los_setup(rng, 8, 2)
    rf = steering_vector(angles, cfg)
    w = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    scaled = w.copy()
    scaled[:, 0] *= 10.0
    assert np.allclose(_normalize(w, rf).astype(complex)[:, 0],
                       _normalize(scaled, rf).astype(complex)[:, 0], atol=1e-12)


def test_vector_normalize_zero_column_rejected():
    cfg = ArrayConfig(4, 0.5)
    rf = steering_vector(np.array([0.1, 0.9]), cfg)
    w = np.array([[1.0, 0.0], [0.5j, 0.0]])
    with pytest.raises(DegeneratePrecoder):
        _normalize(w, rf)


def test_hbs_single_user_end_to_end():
    cfg = ArrayConfig(16, 0.5)
    alpha = 1.1 - 0.6j
    h = los_channel(PathParams(alpha, 2.2), cfg)[None, :]
    f = hbs_beamformer_set(h, [2.2], cfg)
    assert abs(h[0] @ f[:, 0]) == pytest.approx(4 * abs(alpha), abs=1e-9)


def test_hbs_null_interference():
    rng = np.random.default_rng(17)
    cfg, angles, _, h = random_los_setup(rng, 32, 3)
    gains = np.abs(h @ hbs_beamformer_set(h, angles, cfg))
    for k in range(3):
        for i in range(3):
            if i != k:
                assert gains[k, i] / gains[k, k] < 1e-8


def test_hbs_null_interference_ill_conditioned_draw():
    # Draw 3669 of acceptance criterion 6 (seed 2027), the worst-conditioned
    # of its 10^4 draws, rebuilt the same way: cond(H_hat) ~ 2e9, where a
    # float64 rounding anywhere in the ZF chain leaks about eps64 * cond of
    # interference.
    cfg = ArrayConfig(64, 0.5)
    angles, x = sample_path_params(child_rng(2027, 4, 3669), 4)
    h = np.stack([los_channel(PathParams(g, a), cfg) for g, a in zip(np.sqrt(x), angles)])
    f = hbs_beamformer_set(h, angles, cfg)
    assert np.linalg.cond(h @ steering_vector(angles, cfg)) > 1e8
    gains_mat = np.abs(h @ f)
    diag = np.diag(gains_mat).copy()
    np.fill_diagonal(gains_mat, 0.0)
    assert (gains_mat.max(axis=1) / diag).max() < 1e-8
    assert np.abs(np.linalg.norm(f, axis=0) - 1.0).max() <= 1e-10
    assert f.dtype == np.complex128


def test_hbs_invariant_to_equivalent_channel_scaling():
    rng = np.random.default_rng(18)
    cfg, angles, _, h = random_los_setup(rng, 16, 3)
    rf = steering_vector(angles, cfg)
    h_hat = ext_product(h, rf).astype(complex)
    w1 = _normalize(_invert(h_hat).astype(complex), rf).astype(complex)
    w2 = _normalize(_invert(3.0 * h_hat).astype(complex), rf).astype(complex)
    assert np.allclose(w1, w2, atol=1e-10)

