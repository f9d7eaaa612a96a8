import argparse
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import beamsteer
from beamsteer import cli, experiment, semetrics
from beamsteer.arrays import ArrayConfig
from beamsteer.cli import (CONFIG_KEYS, SNR_GRID_MAX, UsageError, build_parser,
                           load_config_file, main, parse_int_list, parse_schemes,
                           parse_snr_spec)
from beamsteer.experiment import (ABS_SATURATION_LABEL, CSV_HEADER,
                                  ExperimentConfig, ValidationCheck,
                                  format_validation_report, rows_to_csv,
                                  run_sweep, run_validation)
from beamsteer.semetrics import Scheme, SnrPoint, run_monte_carlo


def test_parse_snr_spec_forms():
    assert parse_snr_spec("-10,0,10") == (-10.0, 0.0, 10.0)
    assert parse_snr_spec("-10:5:30") == tuple(float(x) for x in range(-10, 31, 5))
    assert parse_snr_spec("30:5:30") == (30.0,)
    with pytest.raises(UsageError):
        parse_snr_spec("10:0:20")
    with pytest.raises(UsageError):
        parse_snr_spec("abc")


def test_parse_lists():
    assert parse_int_list("16,32") == (16, 32)
    assert parse_schemes("ABS,NoInterference") == (Scheme.ABS, Scheme.NO_INTERFERENCE)
    with pytest.raises(UsageError):
        parse_schemes("ZF")


def test_config_validation(tmp_path, monkeypatch):
    with pytest.raises(ValueError):
        ExperimentConfig(n_tx_list=(16,), n_beams=2, snr_db_grid=(10.0, 5.0))
    with pytest.raises(ValueError):
        ExperimentConfig(n_tx_list=(), n_beams=2)
    # a repeated entry wrote the same rows again: n_tx_list=(8, 8) with two
    # ABS schemes wrote each ABS row four times and the saturation row twice
    for kwargs in ({"n_tx_list": (8, 8), "schemes": (Scheme.ABS, Scheme.ABS)},
                   {"n_tx_list": (8, 16, 8)},
                   {"schemes": (Scheme.HBS, Scheme.ABS, Scheme.HBS)}):
        with pytest.raises(ValueError, match="repeats an entry"):
            ExperimentConfig(**{"n_tx_list": (8,), "n_beams": 2, **kwargs})

    # trial and beam counts and scheme lists are checked per cell, before
    # anything is drawn
    def no_draw(*args, **kwargs):
        raise AssertionError("drew before the cell checks")

    monkeypatch.setattr(experiment, "draw_blocks", no_draw)
    for kwargs, match in (({"trials": 0}, "trials"), ({"n_beams": 0}, "beams")):
        cfg = ExperimentConfig(**{"n_tx_list": (16,), "n_beams": 2, **kwargs})
        with pytest.raises(ValueError, match=match):
            run_sweep(cfg)
    cells = [(2, ArrayConfig(8), (Scheme.ABS,), [1.0]),
             (2, ArrayConfig(16), (Scheme.HBS, Scheme.HBS), [1.0])]
    with pytest.raises(ValueError, match="repeats an entry"):
        experiment.simulate_cells(cells, 10, 0)
    zero_beams = tmp_path / "zero.cfg"
    zero_beams.write_text("nbeams = 0\n")
    assert main(["sweep", "--config", str(zero_beams)]) == 1


def test_figure1_row_counts():
    cfg = ExperimentConfig(n_tx_list=(16, 32, 128), n_beams=2, trials=20,
                           schemes=(Scheme.ABS,), bounds=True)
    rows = run_sweep(cfg)
    sim = [r for r in rows if r.label == "ABS"]
    bound = [r for r in rows if r.label == ABS_SATURATION_LABEL]
    assert len(sim) == 27
    assert len(bound) == 3
    assert len(rows) == 30
    assert all(r.snr_db is None and r.se_stderr is None for r in bound)


def test_csv_shape_and_header():
    cfg = ExperimentConfig(n_tx_list=(8,), n_beams=2, snr_db_grid=(0.0, 10.0),
                           trials=10, schemes=(Scheme.ABS, Scheme.HBS), bounds=True)
    text = rows_to_csv(run_sweep(cfg))
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    # 2 snr x 2 schemes + 1 saturation + 2 hbs-approx rows
    assert len(lines) == 1 + 4 + 3


def test_sweep_deterministic_csv(tmp_path):
    args = ["sweep", "--ntx", "8", "--nbeams", "2", "--snr-db", "0,10",
            "--trials", "500", "--seed", "5", "--schemes", "ABS,HBS"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_thread_count_invariance(tmp_path):
    args = ["sweep", "--ntx", "8", "--nbeams", "2", "--snr-db", "10",
            "--trials", "5000", "--seed", "5", "--schemes", "ABS"]
    out1, out2 = tmp_path / "t1.csv", tmp_path / "t4.csv"
    assert main(args + ["--threads", "1", "--out", str(out1)]) == 0
    assert main(args + ["--threads", "4", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_config_file_and_flag_override(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("ntx = 4,8\nnbeams = 2\nsnr_db = 0,10  # grid\n"
                        "trials = 20\nseed = 3\nschemes = ABS\n")
    out1 = tmp_path / "c1.csv"
    assert main(["sweep", "--config", str(cfg_file), "--out", str(out1)]) == 0
    lines = out1.read_text().strip().split("\n")
    assert len(lines) == 1 + 4 + 2  # header, 2x2 sim, 2 bound rows
    # flag overrides the file
    out2 = tmp_path / "c2.csv"
    assert main(["sweep", "--config", str(cfg_file), "--ntx", "4",
                 "--out", str(out2)]) == 0
    assert all(",8," not in line for line in out2.read_text().split("\n")[1:] if line)


# key -> (file value, flag, ExperimentConfig field, parsed file value, parsed flag value)
CONFIG_OVERRIDES = {
    "ntx": ("4,8", "--ntx=16", "n_tx_list", (4, 8), (16,)),
    "nbeams": ("3", "--nbeams=4", "n_beams", 3, 4),
    "snr_db": ("0,10", "--snr-db=-5:5:5", "snr_db_grid", (0.0, 10.0), (-5.0, 0.0, 5.0)),
    "trials": ("20", "--trials=30", "trials", 20, 30),
    "seed": ("3", "--seed=4", "seed", 3, 4),
    "spacing": ("0.25", "--spacing=0.75", "spacing", 0.25, 0.75),
    "schemes": ("ABS", "--schemes=HBS,NoInterference", "schemes", (Scheme.ABS,),
                (Scheme.HBS, Scheme.NO_INTERFERENCE)),
}


def _sweep_configs(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "run_sweep", lambda cfg, **kw: calls.append(cfg) or [])
    return calls


@pytest.mark.parametrize("key", CONFIG_KEYS)
def test_flag_overrides_each_config_key(tmp_path, monkeypatch, key):
    assert sorted(CONFIG_OVERRIDES) == sorted(CONFIG_KEYS)
    file_value, flag, field, from_file, from_flag = CONFIG_OVERRIDES[key]
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(f"{key} = {file_value}\n")
    calls = _sweep_configs(monkeypatch)
    assert main(["sweep", "--config", str(cfg_file)]) == 0
    assert main(["sweep", "--config", str(cfg_file), flag]) == 0
    assert main(["sweep", flag, "--config", str(cfg_file)]) == 0
    assert [getattr(cfg, field) for cfg in calls] == [from_file, from_flag, from_flag]


def test_config_keys_are_sweep_options():
    # a config key is read as the sweep flag of the same name
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {s for a in sub.choices["sweep"]._actions for s in a.option_strings}
    assert {"--" + key.replace("_", "-") for key in CONFIG_KEYS} <= options


@pytest.mark.parametrize("line, message", [
    ("nbeams = 0", "argument --nbeams"),
    ("trials = 0", "argument --trials"),
    ("seed = x", "argument --seed"),
    ("snr_db = 10:0:20", "bad SNR spec"),
    ("schemes = MRT", "unknown scheme"),
    ("ntx = 8,,16", "bad integer list"),
])
def test_bad_config_value_exit_one(tmp_path, monkeypatch, capsys, line, message):
    # a file value gets the check of its flag, before anything runs
    bad = tmp_path / "bad.cfg"
    bad.write_text(line + "\n")
    calls = _sweep_configs(monkeypatch)
    assert main(["sweep", "--config", str(bad)]) == 1
    assert message in capsys.readouterr().err
    assert calls == []


def test_validate_has_no_out(tmp_path, monkeypatch, capsys):
    # validate prints its report; an --out it would ignore is a usage error
    calls = []
    monkeypatch.setattr(cli, "run_validation", lambda **kw: calls.append(kw) or [])
    out = tmp_path / "v.txt"
    assert main(["validate", "--trials", "20", "--out", str(out)]) == 1
    assert "unrecognized arguments: --out" in capsys.readouterr().err
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("argv, snr", [
    (["sweep", "--ntx", "8", "--trials", "50", "--snr-db", "3075",
      "--schemes", "ABS,HBS,NoInterference", "--no-bounds"], "3075 dB"),
    # only some streams' rho * interference overflows: their SE read 0
    (["sweep", "--ntx", "8", "--nbeams", "5", "--trials", "2000", "--seed", "1",
      "--snr-db", "3064.3", "--no-bounds"], "3064.3 dB"),
    (["bounds", "--ntx", "8", "--snr-db", "3080"], "3080 dB"),
])
def test_overflowing_snr_exit_one(tmp_path, capsys, argv, snr):
    # a finite SNR whose rho * n_tx |g|^2 overflows wrote nan/inf rows
    out = tmp_path / "o.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert snr in err and "overflows" in err
    assert not out.exists()


def test_bad_config_file_is_usage_error(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("this is not key value\n")
    assert main(["sweep", "--config", str(bad)]) == 1


def test_unknown_config_key_exit_one(tmp_path, monkeypatch, capsys):
    # a misspelled key must not run the sweep with the default it failed to set
    typo = tmp_path / "typo.cfg"
    typo.write_text("ntx = 8\ntrails = 10\n")
    calls = []
    monkeypatch.setattr(cli, "run_sweep", lambda *a, **kw: calls.append(a) or [])
    assert main(["sweep", "--config", str(typo)]) == 1
    err = capsys.readouterr().err
    assert "'trails'" in err
    assert "ntx, nbeams, snr_db, trials, seed, spacing, schemes" in err
    assert calls == []


def test_usage_errors_exit_one():
    assert main(["sweep", "--snr-db", "nope"]) == 1
    assert main(["sweep", "--schemes", "MRT"]) == 1
    assert main(["sweep", "--config", "/nonexistent/file.cfg"]) == 1


def test_bounds_subcommand(tmp_path):
    out = tmp_path / "b.csv"
    assert main(["bounds", "--ntx", "16,32", "--nbeams", "3",
                 "--snr-db", "30", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5  # per n_tx: 1 saturation + 1 hbs row


def test_figure_preset_smoke(tmp_path):
    out = tmp_path / "f4.csv"
    assert main(["figure4", "--trials", "50", "--snr-db", "25,30",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    # 2 snr x 2 schemes + 1 saturation + 2 hbs-approx
    assert len(lines) == 1 + 4 + 3
    assert all(",128,5," in line for line in lines[1:])


def test_validation_report_formatting():
    checks = [ValidationCheck("figure1", "demo", 0.1, 0.0, 0.2),
              ValidationCheck("figure2", "demo2", 0.5, 0.0, 0.2)]
    report = format_validation_report(checks)
    assert "PASS" in report and "FAIL" in report
    assert "1/2 checks passed" in report


def test_validate_subcommand_tiny(capsys):
    rc = main(["validate", "--trials", "300", "--seed", "9"])
    out = capsys.readouterr().out
    assert rc in (0, 2)
    assert "checks passed" in out


def test_saturation_rows_constant_across_file():
    cfg = ExperimentConfig(n_tx_list=(16,), n_beams=2, snr_db_grid=(0.0, 30.0),
                           trials=5, schemes=(Scheme.ABS,), bounds=True)
    rows = run_sweep(cfg)
    sat = [r for r in rows if r.label == ABS_SATURATION_LABEL]
    assert len(sat) == 1
    assert np.isfinite(sat[0].se_mean)


def test_non_finite_snr_exit_one(tmp_path, capsys):
    out = tmp_path / "nan.csv"
    for snr in ("nan", "inf"):
        assert main(["sweep", "--ntx", "8", "--nbeams", "2", "--snr-db", snr,
                     "--trials", "10", "--out", str(out)]) == 1
        assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_hbs_more_beams_than_antennas_exit_one(capsys):
    assert main(["sweep", "--ntx", "2", "--nbeams", "3", "--schemes", "HBS",
                 "--trials", "10", "--no-bounds"]) == 1
    err = capsys.readouterr().err
    assert "3 users on 2 antennas" in err


def test_non_positive_trials_exit_one(monkeypatch, capsys):
    # --trials 0 must not fall back to the 50000-trial default
    calls = []
    monkeypatch.setattr(cli, "run_validation", lambda **kw: calls.append(kw) or [])
    monkeypatch.setattr(cli, "run_figure", lambda *a, **kw: calls.append(kw) or [])
    for command in ("validate", "figure1"):
        assert main([command, "--trials", "0"]) == 1
        assert "--trials" in capsys.readouterr().err
    assert calls == []


def test_non_positive_threads_exit_one(capsys):
    for threads in ("0", "-2"):
        assert main(["sweep", "--ntx", "8", "--trials", "10", "--no-bounds",
                     "--threads", threads]) == 1
        assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("cpus, started", [(64, 2), (1, 1), (None, 1)])
def test_pool_size_capped(monkeypatch, capsys, cpus, started):
    # ProcessPoolExecutor forks all max_workers processes when it starts, so
    # --threads 100000 must ask for no more than one per chunk and per CPU:
    # a 2-chunk sweep gets `started`.  validate draws its K = 2, 3, 5 blocks,
    # six chunks, over one pool.  The fake pool records the request and
    # starts none.

    class RecordingPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    trials = ["--trials", str(2 * semetrics._CHUNK)]
    for args, pool in ((["sweep", "--ntx", "8", "--no-bounds"], started),
                       (["validate"], min(6, cpus or 1))):
        requested = []
        with monkeypatch.context() as patch:
            code = main(args + trials)
            single = capsys.readouterr().out
            patch.setattr(semetrics, "ProcessPoolExecutor", RecordingPool)
            patch.setattr(os, "cpu_count", lambda: cpus)
            assert main(args + trials + ["--threads", "100000"]) == code
        assert requested == [pool]
        assert capsys.readouterr().out == single


def test_non_finite_snr_range_exit_one(capsys):
    # a non-finite stop never ended the range; a nan start gave an empty grid
    for argv in (["sweep", "--snr-db", "0:1:inf", "--trials", "10"],
                 ["figure1", "--snr-db=-inf:5:30", "--trials", "10"],
                 ["bounds", "--snr-db", "nan:1:5"],
                 ["bounds", "--snr-db", "0:nan:5"],
                 ["bounds", "--snr-db", "nan,5"]):
        assert main(argv) == 1
        assert "finite" in capsys.readouterr().err


def test_snr_range_point_cap(capsys):
    assert len(parse_snr_spec(f"0:1:{SNR_GRID_MAX - 1}")) == SNR_GRID_MAX
    for spec in (f"0:1:{SNR_GRID_MAX}", "0:1e-9:30", "-1e308:1:1e308", "1e20:1:1e20"):
        with pytest.raises(UsageError, match=f"more than {SNR_GRID_MAX} points"):
            parse_snr_spec(spec)
    # 3e10 points: counted and rejected before any grid is built
    assert main(["bounds", "--snr-db", "0:1e-9:30"]) == 1
    assert str(SNR_GRID_MAX) in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["30,10,10", "10,10", "0,20,10"])
def test_snr_list_not_increasing_exit_one(tmp_path, capsys, spec):
    # bounds wrote a repeated or out-of-order SNR list's rows and exited 0
    out = tmp_path / "b.csv"
    for argv in (["bounds", "--ntx", "16"],
                 ["sweep", "--ntx", "8", "--trials", "10"]):
        assert main(argv + ["--snr-db", spec, "--out", str(out)]) == 1
        assert "strictly increasing" in capsys.readouterr().err
    assert not out.exists()


def test_bounds_non_positive_nbeams_exit_one(tmp_path, capsys):
    out = tmp_path / "b.csv"
    for nbeams in ("0", "-3"):
        assert main(["bounds", "--nbeams", nbeams, "--out", str(out)]) == 1
        assert "--nbeams" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spacing", ["nan", "inf", "0", "-1", "1e308"])
def test_bounds_bad_spacing_exit_one(tmp_path, capsys, spacing):
    out = tmp_path / "b.csv"
    assert main(["bounds", "--spacing", spacing, "--out", str(out)]) == 1
    assert "spacing" in capsys.readouterr().err
    # one beam evaluates no saturation bound, and the spacing is still checked
    assert main(["bounds", "--nbeams", "1", "--spacing", spacing, "--out", str(out)]) == 1
    assert "spacing" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_overflowing_spacing_exit_one(tmp_path, capsys):
    # a finite spacing whose phases 4 pi d n_tx overflow gave NaN rows
    out = tmp_path / "s.csv"
    argv = ["sweep", "--ntx", "8", "--spacing", "1e308", "--trials", "10", "--no-bounds",
            "--snr-db", "0", "--out", str(out)]
    assert main(argv) == 1
    assert "phase span 4 pi d n_tx" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", str(2**128 + 1)])
@pytest.mark.parametrize("command", ["sweep", "validate"])
def test_seed_out_of_range_exit_one(tmp_path, capsys, command, seed):
    out = tmp_path / "s.csv"
    argv = [command, "--trials", "10", "--seed", seed]
    assert main(argv + (["--out", str(out)] if command == "sweep" else [])) == 1
    assert "seed must be in [0, 2**64)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_equals_per_cell_calls(monkeypatch, workers):
    # the sweep draws one block and simulates the array's three schemes in
    # one call; 32x5 at seed 2026 over 40000 trials includes trial 39902,
    # which only HBS redraws
    grid = (-10.0, 30.0)
    cfg = ExperimentConfig(n_tx_list=(32,), n_beams=5, snr_db_grid=grid, trials=40000,
                           seed=2026, schemes=tuple(Scheme), bounds=False)
    calls = []

    def run(config, n_users, schemes, *args, run=experiment.run_monte_carlo, **kwargs):
        calls.append(schemes)
        return run(config, n_users, schemes, *args, **kwargs)

    monkeypatch.setattr(experiment, "run_monte_carlo", run)
    rows = run_sweep(cfg, workers=workers)
    assert calls == [tuple(Scheme)]
    expected = []
    for scheme in Scheme:
        (estimates,) = run_monte_carlo(ArrayConfig(32, 0.5), 5, [scheme],
                                       [SnrPoint.from_db(x) for x in grid], 40000, 2026)
        expected += [(scheme.value, e.mean, e.std_error, e.n_resampled) for e in estimates]
    assert [(r.label, r.se_mean, r.se_stderr, r.n_resampled) for r in rows] == expected
    assert [r.n_resampled for r in rows] == [0, 0, 1, 1, 0, 0]


def test_validation_equals_per_cell_calls(monkeypatch):
    # one draw call gives the K = 2, 3, 5 blocks, each drawn once, and six
    # array cells simulate the eleven (n_tx, scheme) pairs
    drawn, runs = [], []

    def draw(seed, user_counts, trials, workers, draw_blocks=semetrics.draw_blocks):
        drawn.append(list(user_counts))
        return draw_blocks(seed, user_counts, trials, workers=workers)

    def run(config, n_users, schemes, snrs, trials, seed, *, block,
            run=experiment.run_monte_carlo):
        estimates = run(config, n_users, schemes, snrs, trials, seed, block=block)
        runs.append((config, n_users, schemes, snrs, estimates))
        return estimates

    monkeypatch.setattr(experiment, "draw_blocks", draw)
    monkeypatch.setattr(experiment, "run_monte_carlo", run)
    assert len(run_validation(trials=300, seed=9)) == 16
    assert drawn == [[2, 3, 5]]
    assert len(runs) == 6
    assert sum(len(schemes) for _, _, schemes, _, _ in runs) == 11
    for config, n_users, schemes, snrs, estimates in runs:
        for scheme, scheme_estimates in zip(schemes, estimates):
            assert (scheme_estimates,) == run_monte_carlo(config, n_users, [scheme], snrs,
                                                          300, 9)


def test_gram_kernel_once_per_chunk_and_array(monkeypatch):
    # ABS and HBS read the same Gram kernel R of a chunk: a sweep of all
    # three schemes over two arrays and two chunks computes it four times
    computed = []

    def gram(aods, config, gram=semetrics._gram):
        computed.append((config.n_tx, len(aods)))
        return gram(aods, config)

    monkeypatch.setattr(semetrics, "_gram", gram)
    cfg = ExperimentConfig(n_tx_list=(8, 16), n_beams=3, snr_db_grid=(0.0, 20.0),
                           trials=2 * semetrics._CHUNK, seed=3, schemes=tuple(Scheme),
                           bounds=False)
    run_sweep(cfg)
    chunk = semetrics._CHUNK
    assert computed == [(8, chunk), (8, chunk), (16, chunk), (16, chunk)]


def test_cli_import_leaves_numpy_random_unloaded():
    # The draws come from the package's own Philox kernel, so numpy.random
    # (and the hashlib/OpenSSL it pulls in) loads in no process: not on
    # import, and not in a run whose HBS cell takes the extended-precision
    # fallback and redraws a trial (8x5 at seed 0), in one process or with
    # its two draw chunks over a pool.
    src = str(Path(beamsteer.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, beamsteer.cli; sys.exit('numpy.random' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
    run = ("import sys; from beamsteer.cli import main; rc = main(sys.argv[1:]); "
           "sys.exit(rc or 3 * ('numpy.random' in sys.modules))")
    for threads in ("1", "2"):
        argv = ["sweep", "--ntx", "8", "--nbeams", "5", "--schemes", "HBS", "--snr-db", "0",
                "--trials", str(semetrics._CHUNK + 52), "--seed", "0", "--no-bounds",
                "--threads", threads]
        proc = subprocess.run([sys.executable, "-c", run, *argv], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        header, row = proc.stdout.splitlines()
        assert header.endswith("n_resampled") and int(row.split(",")[-1]) > 0


def test_repeated_list_entry_exit_one(tmp_path, capsys):
    # a repeated n_tx or scheme wrote the same rows twice
    base = ["sweep", "--trials", "10", "--snr-db", "0"]
    for extra, flag in ((["--ntx", "8,8", "--schemes", "ABS,ABS"], "--ntx"),
                        (["--ntx", "8,16,8"], "--ntx"),
                        (["--schemes", "HBS,ABS,HBS"], "--schemes")):
        assert main(base + extra) == 1
        out, err = capsys.readouterr()
        assert out == "" and flag in err and "repeats an entry" in err
    assert main(["bounds", "--ntx", "16,16"]) == 1
    config = tmp_path / "repeat.cfg"
    config.write_text("schemes = ABS, ABS\n")
    assert main(base + ["--config", str(config)]) == 1
    assert "repeats an entry" in capsys.readouterr().err
