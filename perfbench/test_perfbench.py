"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import dataclasses
import json
import tempfile
import time
import types
from pathlib import Path

import pytest

import checker
import run as bench
from tracer import Tracer

TINY_TRIALS = "16"
BENCHMARK = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _tiny(argv):
    argv = list(argv)
    if argv:
        argv[argv.index("--trials") + 1] = TINY_TRIALS
    return tuple(argv)


@pytest.fixture(scope="module", params=sorted(bench.WORKLOADS))
def tiny_workload(request):
    """A workload at 16 trials with a reference captured from two seeds."""
    wl = bench.WORKLOADS[request.param]
    wl = dataclasses.replace(wl, argv=_tiny(wl.argv), single_argv=_tiny(wl.single_argv))
    seeds = (1, 2)
    with tempfile.TemporaryDirectory(dir=bench.ROOT, prefix=".perfbench-") as tmp:
        jobs = [bench.run_job(wl, wl.argv, s, Path(tmp), False, time.monotonic() + 120)
                for s in seeds]
    outputs = [(j["exit_code"], j["text"]) for j in jobs]
    ref = checker.build_reference(wl.name, wl.report, wl.argv, seeds, outputs)
    return wl, ref


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_reported_with_its_unit(tiny_workload, trace, section):
    wl, ref = tiny_workload
    result, env, _ = bench.run(wl, ref, seed=1, seconds=0, trace=bool(trace))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    for name, m in result["metrics"].items():
        assert m["value"] is not None, name
    assert Path(env["beamsteer_file"]).is_relative_to(bench.ROOT / "src")
    for key in ("python", "numpy", "blas", "nproc", "cpu_model", "threads"):
        assert key in env


def _rows_at_reference(ref):
    return {key: (row["mean"], row["kind"]) for key, row in ref["rows"].items()}


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_checker_accepts_reference_and_rejects_half_bit_shift(name):
    ref = checker.load_reference(name)
    expected_exit = 0 if ref["report"] == "csv" else 2
    rows = _rows_at_reference(ref)
    assert checker.failed_rows(ref, rows, expected_exit, expected_exit) == []
    for key in ref["rows"]:
        value, kind = rows[key]
        for shift in (0.5, -0.5):
            shifted = dict(rows, **{key: (value + shift, kind)})
            assert checker.failed_rows(ref, shifted, expected_exit, expected_exit) == [key]


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_checker_rejects_exit_code_1_and_missing_rows(name):
    ref = checker.load_reference(name)
    expected_exit = 0 if ref["report"] == "csv" else 2
    rows = _rows_at_reference(ref)
    assert checker.failed_rows(ref, rows, 1, expected_exit) == sorted(ref["rows"])
    rows.pop(next(iter(rows)))
    assert checker.failed_rows(ref, rows, expected_exit, expected_exit) == sorted(ref["rows"])


def test_bound_rows_must_match_to_rounding():
    ref = checker.load_reference("fig4-hbs")
    rows = _rows_at_reference(ref)
    key = next(k for k, r in ref["rows"].items() if r["kind"] == "bound")
    value, kind = rows[key]
    rows[key] = (value * (1 + 1e-9), kind)
    assert checker.failed_rows(ref, rows, 0, 0) == [key]


def test_validate_exit_code_follows_report_status():
    report = ("status  figure     measured              window  check\n"
              "PASS    figure1      0.1057  [ 0.0000,  0.2000]  gap, n_tx=16\n"
              "FAIL    figure1      0.2550  [ 0.0000,  0.0500]  flatness, n_tx=16\n")
    rows, expected_exit = checker.parse_output("validate", report)
    assert rows == {"figure1|gap, n_tx=16": (0.1057, "sim"),
                    "figure1|flatness, n_tx=16": (0.2550, "sim")}
    assert expected_exit == 2
    _, expected_exit = checker.parse_output("validate", report.replace("FAIL", "PASS"))
    assert expected_exit == 0


def _fake_package():
    """A stand-in for beamsteer with only sample_path_params in semetrics."""
    semetrics = types.SimpleNamespace(sample_path_params=lambda rng, n: time.sleep(0.01))
    return types.SimpleNamespace(semetrics=semetrics, cli=types.SimpleNamespace(),
                                 experiment=types.SimpleNamespace())


def test_absent_wrap_targets_report_null():
    package = _fake_package()
    tracer = Tracer()
    tracer.install(package)
    package.semetrics.sample_path_params(None, 2)
    metrics = tracer.metrics()
    assert metrics["channel.draw.calls"] == (None, "count")  # child_rng is gone
    assert metrics["channel.draw.s"][0] >= 0.01
    assert metrics["semetrics.zf_solve.calls"] == (None, "count")
    assert metrics["semetrics.run_monte_carlo.s"] == (None, "s")


def test_self_time_excludes_child_spans():
    package = _fake_package()

    def run_monte_carlo():
        package.semetrics.sample_path_params(None, 2)
        time.sleep(0.02)
        return types.SimpleNamespace(n_resampled=3)

    package.experiment.run_monte_carlo = run_monte_carlo
    tracer = Tracer()
    tracer.install(package)
    package.experiment.run_monte_carlo()
    metrics = tracer.metrics()
    total, draw = metrics["semetrics.run_monte_carlo.s"][0], metrics["channel.draw.s"][0]
    assert metrics["semetrics.kernel.self_s"][0] == pytest.approx(total - draw)
    assert draw >= 0.01 and total - draw >= 0.02
    assert metrics["semetrics.run_monte_carlo.calls"] == (1, "count")
    assert metrics["semetrics.resampled"] == (3, "count")


def test_fallback_counts_trials_and_keeps_its_time_out_of_the_kernel():
    package = _fake_package()
    attempts = iter([False, True, True])  # trial 1 resampled once, trial 2 not

    def hbs_beamformer_set():
        time.sleep(0.005)
        if not next(attempts):
            raise ArithmeticError("singular equivalent channel")

    def per_stream_sinr():
        time.sleep(0.005)

    def run_monte_carlo():
        for _ in range(2):  # two trials sent to the scalar path
            while True:
                try:
                    package.semetrics.hbs_beamformer_set()
                    break
                except ArithmeticError:
                    continue
            package.semetrics.per_stream_sinr()
        return types.SimpleNamespace(n_resampled=1)

    package.semetrics.hbs_beamformer_set = hbs_beamformer_set
    package.semetrics.per_stream_sinr = per_stream_sinr
    package.experiment.run_monte_carlo = run_monte_carlo
    tracer = Tracer()
    tracer.install(package)
    package.experiment.run_monte_carlo()
    metrics = tracer.metrics()
    assert metrics["beamforming.fallback.calls"] == (2, "count")
    fallback = metrics["beamforming.fallback.s"][0]
    assert fallback >= 0.025
    assert metrics["semetrics.kernel.self_s"][0] == pytest.approx(
        metrics["semetrics.run_monte_carlo.s"][0] - fallback)


def test_run_length_is_limited_to_what_the_deadline_holds():
    with pytest.raises(SystemExit):
        bench.main(["--workload", "fig4-hbs", "--seed", "1",
                    "--seconds", str(bench.MAX_SECONDS + 1)])
    assert BENCHMARK["run_seconds"] <= bench.MAX_SECONDS
