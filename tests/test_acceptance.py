"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Trial counts default to
50000; set BEAMSTEER_ACCEPT_TRIALS to reduce them for quick CI runs (the
gap windows were calibrated at 50000 trials).
"""

import os
import time

import numpy as np
import pytest

from beamsteer.arrays import ArrayConfig, steering_vector
from beamsteer.beamforming import SingularEquivalentChannel, hbs_beamformer_set
from beamsteer.bounds import bessel_j0, cross_correlation_expectation, hbs_se_approx
from beamsteer.channel import child_rng, sample_path_params
from beamsteer.cli import main
from beamsteer.experiment import run_validation
from beamsteer.semetrics import Scheme, SnrPoint

from j0_oracle import j0_series, j0_zero
from los_reference import PathParams, los_channel
from single_cell import run_cell

TRIALS = int(os.environ.get("BEAMSTEER_ACCEPT_TRIALS", "50000"))
SEED = 2026


def _report(criterion, passed, detail):
    print(f"{'PASS' if passed else 'FAIL'} {criterion}: {detail}")
    return passed


@pytest.fixture(scope="module")
def checks():
    return run_validation(trials=TRIALS, seed=SEED)


def _figure_criterion(checks, figure, criterion):
    ok = True
    details = []
    for c in (c for c in checks if c.figure == figure):
        ok &= _report(criterion, c.passed,
                      f"{c.name}: measured {c.measured:.4f}, window [{c.lo:.4f}, {c.hi:.4f}]")
        details.append(c)
    assert ok, f"{criterion} failed: " + "; ".join(
        f"{c.name}={c.measured:.4f} not in [{c.lo:.4f},{c.hi:.4f}]"
        for c in details if not c.passed)


def test_criterion_1_abs_saturation(checks):
    start = time.monotonic()
    _figure_criterion(checks, "figure1", "criterion 1 (ABS saturation, fig 1)")
    assert time.monotonic() - start < 360  # shared fixture; per-n_tx budget 2 min


def test_criterion_2_hbs_approximation_tightness(checks):
    _figure_criterion(checks, "figure2", "criterion 2 (HBS approximation, fig 2)")


def test_criterion_3_multi_beam_bounds(checks):
    _figure_criterion(checks, "figure3", "criterion 3 (multi-beam gaps, fig 3)")


def test_criterion_4_large_array_regime(checks):
    _figure_criterion(checks, "figure4", "criterion 4 (large-array gaps, fig 4)")


def test_criterion_5_cross_correlation_oracles():
    start = time.monotonic()
    rng = np.random.default_rng(SEED)
    n_pairs = 10**6
    chunk = 200000
    ok = True
    for n_tx in (1, 2, 4, 8, 16, 32):
        for d in (0.25, 0.5, 1.0):
            closed = cross_correlation_expectation(n_tx, d)

            # brute-force Monte Carlo over independent angle pairs
            m = np.arange(n_tx)
            total = 0.0
            total_sq = 0.0
            for _ in range(n_pairs // chunk):
                phi1 = rng.uniform(0, 2 * np.pi, chunk)
                phi2 = rng.uniform(0, 2 * np.pi, chunk)
                zd = 2 * np.pi * d * (np.sin(phi2) - np.sin(phi1))
                vals = np.abs(np.exp(1j * np.outer(zd, m)).sum(axis=1) / n_tx) ** 2
                total += vals.sum()
                total_sq += (vals**2).sum()
            mean = total / n_pairs
            var = max(total_sq / n_pairs - mean**2, 0.0)
            mc_ok = abs(closed - mean) <= 3 * np.sqrt(var / n_pairs) + 1e-12

            # deterministic tensor-grid quadrature
            phis = np.arange(2048) * 2 * np.pi / 2048
            steer = steering_vector(phis, ArrayConfig(n_tx, d))
            quad = (np.abs(steer.conj().T @ steer) ** 2).mean()
            quad_ok = abs(closed - quad) <= 1e-4

            ok &= _report("criterion 5 (cross-correlation oracle)", mc_ok and quad_ok,
                          f"n_tx={n_tx} d={d}: closed {closed:.6f}, "
                          f"mc {mean:.6f}, quad {quad:.6f}")
    elapsed = time.monotonic() - start
    ok &= _report("criterion 5 (runtime)", elapsed < 60, f"{elapsed:.1f}s < 60s")
    assert ok


def test_criterion_6_zf_exactness():
    cfg = ArrayConfig(64, 0.5)
    n_draws = 10**4
    worst_ratio = 0.0
    worst_power = 0.0
    singular = 0
    for t in range(n_draws):
        rng = child_rng(SEED + 1, 4, t)
        angles, x = sample_path_params(rng, 4)
        h = np.stack([los_channel(PathParams(g, a), cfg)
                      for g, a in zip(np.sqrt(x), angles)])
        try:
            f = hbs_beamformer_set(h, angles, cfg)
        except SingularEquivalentChannel:
            singular += 1
            continue
        gains_mat = np.abs(h @ f)
        diag = np.diag(gains_mat).copy()
        np.fill_diagonal(gains_mat, 0.0)
        worst_ratio = max(worst_ratio, (gains_mat.max(axis=1) / diag).max())
        worst_power = max(worst_power,
                          np.abs(np.linalg.norm(f, axis=0) - 1.0).max())
    ok = _report("criterion 6 (ZF exactness)",
                 worst_ratio < 1e-8 and worst_power <= 1e-10 and singular == 0,
                 f"max offdiag/diag {worst_ratio:.2e}, max |power-1| {worst_power:.2e}, "
                 f"singular events {singular}")
    assert ok


def test_criterion_7_hbs_slope():
    d1 = hbs_se_approx(2e3, 128) - hbs_se_approx(1e3, 128)
    d2 = hbs_se_approx(1e3, 256) - hbs_se_approx(1e3, 128)
    exact_ok = abs(d1 - 1.0) <= 1e-9 and abs(d2 - 1.0) <= 1e-9
    ok = _report("criterion 7 (approx doubling slope)", exact_ok,
                 f"rho-doubling {d1:.12f}, n_tx-doubling {d2:.12f}")

    cfg = ArrayConfig(128, 0.5)
    ((est24, est30),) = run_cell(cfg, 2, [Scheme.HBS],
                                 [SnrPoint.from_db(24.0), SnrPoint.from_db(30.0)],
                                 TRIALS, SEED)
    slope = (est30.mean - est24.mean) / 2.0
    ok &= _report("criterion 7 (simulated slope)", abs(slope - 1.0) <= 0.1,
                  f"{slope:.4f} b/s/Hz per 3 dB")
    assert ok


def test_criterion_8_bessel_accuracy():
    xs = np.linspace(0.0, 450.0, 1000)
    worst = max(abs(bessel_j0(x) - j0_series(x)) for x in xs)
    ok = _report("criterion 8 (J0 vs series oracle)", worst <= 1e-9,
                 f"max abs error {worst:.2e} over 1000 points in [0, 450]")
    zeros = [j0_zero(2.0, 3.0), j0_zero(5.0, 6.0), j0_zero(8.0, 9.0)]
    zeros_ok = all(abs(bessel_j0(z)) <= 1e-9 for z in zeros)
    ok &= _report("criterion 8 (first three zeros)", zeros_ok,
                  ", ".join(f"{z:.6f}" for z in zeros))
    assert ok


def test_criterion_9_csv_determinism(tmp_path):
    args = ["sweep", "--ntx", "16", "--nbeams", "2", "--snr-db", "25,30",
            "--trials", "5000", "--seed", "77", "--schemes", "ABS,HBS"]
    paths = {name: tmp_path / f"{name}.csv" for name in ("a", "b", "t1", "t8")}
    assert main(args + ["--out", str(paths["a"])]) == 0
    assert main(args + ["--out", str(paths["b"])]) == 0
    assert main(args + ["--threads", "1", "--out", str(paths["t1"])]) == 0
    assert main(args + ["--threads", "8", "--out", str(paths["t8"])]) == 0
    repeat_ok = paths["a"].read_bytes() == paths["b"].read_bytes()
    thread_ok = paths["t1"].read_bytes() == paths["t8"].read_bytes()
    base_ok = paths["a"].read_bytes() == paths["t1"].read_bytes()
    ok = _report("criterion 9 (CSV determinism)",
                 repeat_ok and thread_ok and base_ok,
                 f"rerun identical: {repeat_ok}, threads 1 vs 8 identical: {thread_ok}")
    assert ok
