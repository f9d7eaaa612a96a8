import argparse
import multiprocessing
import os
import subprocess
import sys
import warnings
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

import beamsteer
from beamsteer import cli, experiment, semetrics
from beamsteer.arrays import ArrayConfig
from beamsteer.cli import (CONFIG_KEYS, SNR_GRID_MAX, UsageError, build_parser,
                           load_config_file, main, parse_int_list, parse_schemes,
                           parse_snr_spec)
from beamsteer.experiment import (ABS_SATURATION_LABEL, CSV_HEADER, HBS_APPROX_LABEL,
                                  ExperimentConfig, ValidationCheck,
                                  format_validation_report, rows_to_csv,
                                  run_sweep, run_validation)
from beamsteer.semetrics import Scheme, SnrPoint, run_monte_carlo

from single_cell import run_cell


def test_parse_snr_spec_forms():
    assert parse_snr_spec("-10,0,10") == (-10.0, 0.0, 10.0)
    assert parse_snr_spec("-10:5:30") == tuple(float(x) for x in range(-10, 31, 5))
    assert parse_snr_spec("30:5:30") == (30.0,)
    # point i of a range is round(start + i*step, 10)
    assert parse_snr_spec("0:0.1:0.5") == (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
    assert parse_snr_spec("-10:2.5:0") == (-10.0, -7.5, -5.0, -2.5, 0.0)
    assert parse_snr_spec("0.3:0.7:5") == (0.3, 1.0, 1.7, 2.4, 3.1, 3.8, 4.5)
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
        ExperimentConfig(n_tx_list=(16,), n_beams_list=(2,), snr_db_grid=(10.0, 5.0))
    with pytest.raises(ValueError):
        ExperimentConfig(n_tx_list=(), n_beams_list=(2,))
    with pytest.raises(ValueError, match="n_beams_list must be non-empty"):
        ExperimentConfig(n_tx_list=(16,), n_beams_list=())
    # a repeated entry wrote the same rows again: n_tx_list=(8, 8) with two
    # ABS schemes wrote each ABS row four times and the saturation row twice
    for kwargs in ({"n_tx_list": (8, 8), "schemes": (Scheme.ABS, Scheme.ABS)},
                   {"n_tx_list": (8, 16, 8)}, {"n_beams_list": (2, 3, 2)}):
        with pytest.raises(ValueError, match="repeats an entry"):
            ExperimentConfig(**{"n_tx_list": (8,), "n_beams_list": (2,), **kwargs})

    # trial and beam counts and scheme lists are checked per cell, before
    # anything is drawn
    def no_draw(*args, **kwargs):
        raise AssertionError("drew before the cell checks")

    monkeypatch.setattr(semetrics, "_draw_chunk", no_draw)
    for kwargs, match in (({"trials": 0}, "trials"), ({"n_beams_list": (0,)}, "beams"),
                          ({"schemes": ()}, "at least one scheme"),
                          ({"schemes": (Scheme.HBS, Scheme.ABS, Scheme.HBS)}, "repeats an entry")):
        cfg = ExperimentConfig(**{"n_tx_list": (16,), "n_beams_list": (2,), **kwargs})
        with pytest.raises(ValueError, match=match):
            run_sweep(cfg)
    cells = [(2, ArrayConfig(8), (Scheme.ABS,), [1.0]),
             (2, ArrayConfig(16), (Scheme.HBS, Scheme.HBS), [1.0])]
    with pytest.raises(ValueError, match="repeats an entry"):
        run_monte_carlo(cells, 10, 0)
    zero_beams = tmp_path / "zero.cfg"
    zero_beams.write_text("nbeams = 0\n")
    assert main(["sweep", "--config", str(zero_beams)]) == 1


def test_figure1_row_counts():
    cfg = ExperimentConfig(n_tx_list=(16, 32, 128), n_beams_list=(2,), trials=20,
                           schemes=(Scheme.ABS,), bounds=True)
    rows = run_sweep(cfg)
    sim = [r for r in rows if r.label == "ABS"]
    bound = [r for r in rows if r.label == ABS_SATURATION_LABEL]
    assert len(sim) == 27
    assert len(bound) == 3
    assert len(rows) == 30
    assert all(r.snr_db is None and r.se_stderr is None for r in bound)


def test_csv_shape_and_header():
    cfg = ExperimentConfig(n_tx_list=(8,), n_beams_list=(2,), snr_db_grid=(0.0, 10.0),
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
    "nbeams": ("3,2", "--nbeams=4", "n_beams_list", (3, 2), (4,)),
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


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_command_parser_is_the_full_parsers_subparser(name):
    # a command's own parser prints the help and usage of its subparser in
    # the full parser and parses to the same namespace
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    full, alone = sub.choices[name], cli.command_parser(name)
    assert (alone.prog, alone.format_help(), alone.format_usage()) == \
        (full.prog, full.format_help(), full.format_usage())
    assert vars(alone.parse_args([])) == vars(build_parser().parse_args([name]))


def test_main_builds_only_the_named_commands_parser(monkeypatch, capsys):
    # a command builds its own parser alone; no command or an unknown one
    # gets the full parser (the top level and each command's), which says so
    built = []

    class Counted(cli._Parser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "_Parser", Counted)
    assert main(["bounds", "--ntx", "8", "--snr-db", "0"]) == 0
    assert built == ["beamsteer bounds"]
    built.clear()
    assert main(["bogus"]) == main([]) == 1
    assert len(built) == 2 * (1 + len(cli.COMMANDS))
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


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


# figure -> its sweep flags and the (n_beams, n_tx) cells of its one run
FIGURE_SWEEPS = {
    "figure1": (["--ntx", "16,32,128", "--nbeams", "2", "--schemes", "ABS"],
                [(2, 16), (2, 32), (2, 128)]),
    "figure2": (["--ntx", "16,32,128", "--nbeams", "2", "--schemes", "HBS,NoInterference"],
                [(2, 16), (2, 32), (2, 128)]),
    "figure3": (["--ntx", "32", "--nbeams", "2,3,5", "--schemes", "ABS,HBS"],
                [(2, 32), (3, 32), (5, 32)]),
    "figure4": (["--ntx", "128", "--nbeams", "5", "--schemes", "ABS,HBS"], [(5, 128)]),
}


@pytest.mark.parametrize("figure", FIGURE_SWEEPS)
def test_figure_is_one_sweep(monkeypatch, capsys, figure):
    # a figure command prints what its sweep line prints, byte for byte, from
    # one run_monte_carlo call over its cells, beam count outermost
    flags, cells = FIGURE_SWEEPS[figure]
    calls = []

    def run(run_cells, *args, run=experiment.run_monte_carlo):
        calls.append([(n_beams, config.n_tx) for n_beams, config, *_ in run_cells])
        return run(run_cells, *args)

    monkeypatch.setattr(experiment, "run_monte_carlo", run)
    common = ["--trials", "300", "--snr-db", "0,30", "--seed", "4"]
    assert main([figure] + common) == 0
    printed = capsys.readouterr().out
    assert calls == [cells]
    assert main(["sweep"] + flags + common) == 0
    assert capsys.readouterr().out == printed
    assert calls == [cells, cells]


def test_nbeams_list(tmp_path, capsys):
    # bounds writes each beam count's rows, beam count outermost: the rows
    # of one bounds call per beam count, in the list's order
    out = tmp_path / "b.csv"
    argv = ["bounds", "--ntx", "16,32", "--snr-db", "30", "--out", str(out)]
    single = []
    for n_beams in ("3", "2"):
        assert main(argv + ["--nbeams", n_beams]) == 0
        single += out.read_text().splitlines()[1:]
    assert main(argv + ["--nbeams", "3,2"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER and lines[1:] == single
    assert [line.split(",")[1:3] for line in single] == [
        ["16", "3"], ["16", "3"], ["32", "3"], ["32", "3"],
        ["16", "2"], ["16", "2"], ["32", "2"], ["32", "2"]]
    out.unlink()
    # every entry is a distinct count of at least 1, on the command line and in a file
    config = tmp_path / "nbeams.cfg"
    for spec in ("2,2", "0", "-3", "abc", "2,0"):
        for command in (["bounds"], ["sweep", "--trials", "10"]):
            assert main(command + ["--nbeams", spec, "--out", str(out)]) == 1
            assert "--nbeams" in capsys.readouterr().err
        config.write_text(f"nbeams = {spec}\n")
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 1
        assert "--nbeams" in capsys.readouterr().err
    assert not out.exists()
    config.write_text("nbeams = 0\n")
    assert main(["sweep", "--config", str(config)]) == 1
    assert capsys.readouterr().err == (
        "error: argument --nbeams: must be a positive integer, got '0'\n")


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
    cfg = ExperimentConfig(n_tx_list=(16,), n_beams_list=(2,), snr_db_grid=(0.0, 30.0),
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


@pytest.mark.parametrize("nbeams, spacing", [("2", "1e-12"), ("3", "1e-5")])
def test_unresolvable_users_exit_one(capsys, nbeams, spacing):
    # users this close are singular at every draw: the resample limit is an
    # input error that names the cell and the trial, not a traceback
    assert main(["sweep", "--ntx", "8", "--nbeams", nbeams, "--spacing", spacing,
                 "--schemes", "HBS", "--trials", "20", "--snr-db", "10"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    for part in (f"K = {nbeams} users", "n_tx = 8", f"spacing {float(spacing):g}", "trial 0",
                 "1000 draws"):
        assert part in err


def test_non_positive_trials_exit_one(monkeypatch, capsys):
    # --trials 0 must not fall back to the 50000-trial default
    calls = []
    monkeypatch.setattr(cli, "run_validation", lambda **kw: calls.append(kw) or [])
    monkeypatch.setattr(cli, "run_sweep", lambda *a, **kw: calls.append(kw) or [])
    for command in ("validate", "figure1"):
        assert main([command, "--trials", "0"]) == 1
        assert "--trials" in capsys.readouterr().err
    assert calls == []


def test_non_positive_threads_exit_one(capsys):
    for threads in ("0", "-2"):
        assert main(["sweep", "--ntx", "8", "--trials", "10", "--no-bounds",
                     "--threads", threads]) == 1
        assert "--threads" in capsys.readouterr().err


class RecordingPool:
    """Stands in for ``ProcessPoolExecutor`` and starts no process: it logs
    its size and the (n_users, start) of each chunk submitted to it, and runs
    the chunk in this process when it is submitted."""

    log = []

    def __init__(self, max_workers):
        self.log.append(("pool", max_workers))

    def submit(self, fn, *args):
        self.log.append(("submit", args[1], args[2]))
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, cancel_futures=False):
        self.log.append(("shutdown", cancel_futures))


def set_cpus(patch, cpus):
    """The CPUs this process may use: ``cpus`` in its affinity mask and its
    count, or, with None, an OS that offers neither."""
    patch.setattr(os, "cpu_count", lambda: cpus)
    if cpus is None:
        patch.delattr(os, "sched_getaffinity", raising=False)
    else:
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


@pytest.mark.parametrize("cpus, cap", [(64, 2), (1, 1), (None, 1)])
def test_pool_size_capped(monkeypatch, capsys, cpus, cap):
    # ProcessPoolExecutor forks all max_workers processes when it starts, so
    # --threads 100000 must run no more processes than chunks or CPUs: this
    # one and a pool of the rest.  A 2-chunk sweep's cap is `cap`.  validate
    # and figure3 each run their K = 2, 3, 5 chunks, six, in one call.  Where
    # the cap is 1 no pool is requested: this process runs every chunk.

    trials = ["--trials", str(2 * semetrics._CHUNK)]
    for args, processes in ((["sweep", "--ntx", "8", "--no-bounds"], cap),
                            (["validate"], min(6, cpus or 1)), (["figure3"], min(6, cpus or 1))):
        with monkeypatch.context() as patch:
            code = main(args + trials)
            single = capsys.readouterr().out
            patch.setattr(semetrics, "ProcessPoolExecutor", RecordingPool)
            patch.setattr(RecordingPool, "log", [])
            set_cpus(patch, cpus)
            assert main(args + trials + ["--threads", "100000"]) == code
            requested = [size for event, size, *_ in RecordingPool.log if event == "pool"]
        assert requested == ([processes - 1] if processes > 1 else [])
        assert capsys.readouterr().out == single


def test_pool_counts_only_cpus_this_process_may_use(monkeypatch):
    # Under an affinity mask of one CPU, a worker would share the CPU this
    # process already runs on: no pool is requested, however many CPUs the
    # machine has.
    monkeypatch.setattr(semetrics, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "log", [])
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert main(["sweep", "--ntx", "8", "--no-bounds", "--trials", str(2 * semetrics._CHUNK),
                 "--threads", "2"]) == 0
    assert RecordingPool.log == []


@pytest.mark.parametrize("threads, in_process", [(2, [0, 2, 4, 6, 8]), (3, [0, 3, 6])])
def test_chunks_split_between_this_process_and_pool(monkeypatch, capsys, threads, in_process):
    # validate's chunks, three per K = 2, 3, 5, in that order: chunk j runs
    # here when j % threads == 0, and every other chunk is submitted to one
    # pool of threads - 1 workers before this process runs its own; a
    # cancelling shutdown follows.  The report is the in-process run's.
    trials = 2 * semetrics._CHUNK + 5
    chunks = [(k, s) for k in (2, 3, 5) for s in range(0, trials, semetrics._CHUNK)]
    argv = ["validate", "--trials", str(trials)]
    assert main(argv) == 2
    single = capsys.readouterr().out
    drawn = []

    def draw(seed, n_users, start, count, draw=semetrics._draw_chunk):
        drawn.append((n_users, start))
        return draw(seed, n_users, start, count)

    monkeypatch.setattr(semetrics, "_draw_chunk", draw)
    monkeypatch.setattr(semetrics, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "log", [])
    set_cpus(monkeypatch, 4)
    assert main(argv + ["--threads", str(threads)]) == 2
    assert capsys.readouterr().out == single
    pooled = [chunk for j, chunk in enumerate(chunks) if j not in in_process]
    assert RecordingPool.log == ([("pool", threads - 1)] + [("submit", *c) for c in pooled]
                                 + [("shutdown", True)])
    assert drawn == pooled + [chunks[j] for j in in_process]


@pytest.mark.parametrize("fails_in", ["this process", "worker"])
def test_failing_chunk_leaves_no_worker(monkeypatch, capsys, fails_in):
    # HBS users that no draw can separate raise in every chunk, the first in
    # this process; a gain stage that raises past the first chunk fails in
    # the pool's worker (forked after the patch, so it runs the patched
    # module).  Either way the command exits 1 with the chunk's message,
    # and no worker is left running.
    argv = ["sweep", "--ntx", "8", "--nbeams", "2", "--spacing", "1e-12", "--schemes", "HBS",
            "--trials", str(2 * semetrics._CHUNK), "--threads", "2", "--no-bounds"]
    message = "cannot separate"
    if fails_in == "worker":
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("a worker that is not forked does not run the patched module")
        argv[argv.index("1e-12")] = "0.5"
        message = f"chunk at {semetrics._CHUNK} failed"

        def gain_chunk(aods, x, config, schemes, seed, start, run=semetrics._gain_chunk):
            if start:
                raise ValueError(f"chunk at {start} failed")
            return run(aods, x, config, schemes, seed, start)

        monkeypatch.setattr(semetrics, "_gain_chunk", gain_chunk)
    set_cpus(monkeypatch, 2)
    assert main(argv) == 1
    assert message in capsys.readouterr().err
    assert multiprocessing.active_children() == []


def test_output_bytes_equal_for_any_thread_count(monkeypatch, capsys):
    # validate over two full chunks and a short one per user count, with
    # this process alone, with one worker and with two
    set_cpus(monkeypatch, 4)
    reports = set()
    for threads in ("1", "2", "3"):
        assert main(["validate", "--trials", str(2 * semetrics._CHUNK + 5), "--seed", "2026",
                     "--threads", threads]) == 2
        reports.add(capsys.readouterr().out)
    assert len(reports) == 1


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
    for spec in (f"0:1:{SNR_GRID_MAX}", "0:1e-9:30", "-1e308:1:1e308"):
        with pytest.raises(UsageError, match=f"more than {SNR_GRID_MAX} points"):
            parse_snr_spec(spec)
    # 3e10 points: counted and rejected before any grid is built
    assert main(["bounds", "--snr-db", "0:1e-9:30"]) == 1
    assert str(SNR_GRID_MAX) in capsys.readouterr().err
    # a range of one point, whose step no float at 1e20 can hold: its SNR
    # is rejected where it is used
    assert parse_snr_spec("1e20:1:1e20") == (1e20,)
    assert main(["bounds", "--snr-db", "1e20:1:1e20"]) == 1
    assert "1e+20 dB overflows" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["30,10,10", "10,10", "0,20,10", "0:1e-11:1e-10",
                                  "1e17:1:100000000000000096"])
def test_snr_list_not_increasing_exit_one(tmp_path, capsys, spec):
    # bounds wrote a repeated or out-of-order SNR list's rows and exited 0; a
    # range whose step is below the grid's 1e-10 rounding collapsed into
    # repeated points the same way, and a step below the float spacing of the
    # range's values stalled the repeated sum
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
    # the sweep simulates the array's three schemes in one call; 32x5 at
    # seed 2026 over 40000 trials includes trials 29735 and 29925, which only
    # HBS redraws
    grid = (-10.0, 30.0)
    cfg = ExperimentConfig(n_tx_list=(32,), n_beams_list=(5,), snr_db_grid=grid, trials=40000,
                           seed=2026, schemes=tuple(Scheme), bounds=False)
    calls = []

    def run(cells, *args, run=experiment.run_monte_carlo, **kwargs):
        calls.append([schemes for _, _, schemes, _ in cells])
        return run(cells, *args, **kwargs)

    monkeypatch.setattr(experiment, "run_monte_carlo", run)
    rows = run_sweep(cfg, workers=workers)
    assert calls == [[tuple(Scheme)]]
    expected = []
    for scheme in Scheme:
        (estimates,) = run_cell(ArrayConfig(32, 0.5), 5, [scheme],
                                [SnrPoint.from_db(x) for x in grid], 40000, 2026)
        expected += [(scheme.value, e.mean, e.std_error, e.n_resampled) for e in estimates]
    assert [(r.label, r.se_mean, r.se_stderr, r.n_resampled) for r in rows] == expected
    assert [r.n_resampled for r in rows] == [0, 0, 2, 2, 0, 0]


def test_validation_equals_per_cell_calls(monkeypatch):
    # one run_monte_carlo call draws each chunk of K = 2, 3 and 5 once, and
    # six array cells, one per (K, n_tx) of the figures, simulate fifteen
    # (n_tx, scheme) pairs
    drawn, runs = [], []

    def draw(seed, n_users, start, count, draw=semetrics._draw_chunk):
        drawn.append((n_users, start, count))
        return draw(seed, n_users, start, count)

    def run(cells, trials, seed, workers, run=experiment.run_monte_carlo):
        estimates = run(cells, trials, seed, workers)
        runs.append((cells, estimates))
        return estimates

    monkeypatch.setattr(semetrics, "_draw_chunk", draw)
    monkeypatch.setattr(experiment, "run_monte_carlo", run)
    assert len(run_validation(trials=300, seed=9)) == 16
    assert drawn == [(2, 0, 300), (3, 0, 300), (5, 0, 300)]
    ((cells, estimates),) = runs
    assert len(cells) == len(estimates) == 6
    assert sum(len(schemes) for _, _, schemes, _ in cells) == 15
    for (n_users, config, schemes, snrs), cell in zip(cells, estimates):
        for scheme, scheme_estimates in zip(schemes, cell):
            assert (scheme_estimates,) == run_cell(config, n_users, [scheme], snrs, 300, 9)


def test_validation_gaps_are_to_the_bound_rows_a_sweep_prints(monkeypatch):
    # each check reads the rows of the figure it names, as its sweep prints
    # them at 25 and 30 dB: a gap is |mean SE at 30 dB - its bound row|, and
    # each array's bound rows are computed once, 6 saturation and 6 approx
    rows = {}  # (figure, snr_db, n_tx, n_beams, label) -> se_mean
    for figure, entry in experiment.FIGURES.items():
        cfg = ExperimentConfig(n_tx_list=entry["ntx"], n_beams_list=entry["nbeams"],
                               snr_db_grid=(25.0, 30.0), trials=300, seed=9,
                               spacing=experiment.FIGURE_SPACING, schemes=entry["schemes"])
        for r in run_sweep(cfg):
            rows[figure, r.snr_db, r.n_tx, r.n_beams, r.label] = r.se_mean
    abs_, hbs = Scheme.ABS, Scheme.HBS

    def gap(figure, n_tx, n_beams, scheme):
        snr_db, label = ((None, ABS_SATURATION_LABEL) if scheme is abs_
                         else (30.0, HBS_APPROX_LABEL))
        return abs(rows[figure, 30.0, n_tx, n_beams, scheme.value]
                   - rows[figure, snr_db, n_tx, n_beams, label])

    def flatness(n_tx):
        return abs(rows["figure1", 30.0, n_tx, 2, "ABS"] - rows["figure1", 25.0, n_tx, 2, "ABS"])

    calls = dict.fromkeys(["abs_saturation_bound", "hbs_se_approx"], 0)
    for name in calls:
        def counted(*args, name=name, bound=getattr(experiment, name)):
            calls[name] += 1
            return bound(*args)
        monkeypatch.setattr(experiment, name, counted)
    checks = run_validation(trials=300, seed=9)
    assert calls == {"abs_saturation_bound": 6, "hbs_se_approx": 6}

    expected = [
        ("figure1", "ABS gap to saturation, n_tx=16", 0.0, 0.2, gap("figure1", 16, 2, abs_)),
        ("figure1", "ABS flatness 25->30 dB, n_tx=16", 0.0, 0.05, flatness(16)),
        ("figure1", "ABS gap to saturation, n_tx=32", 0.0, 0.2, gap("figure1", 32, 2, abs_)),
        ("figure1", "ABS flatness 25->30 dB, n_tx=32", 0.0, 0.05, flatness(32)),
        ("figure1", "ABS gap to saturation, n_tx=128", 0.0, 0.2, gap("figure1", 128, 2, abs_)),
        ("figure1", "ABS flatness 25->30 dB, n_tx=128", 0.0, 0.05, flatness(128)),
        ("figure2", "HBS gap to approx, n_tx=16", 0.15, 0.45, gap("figure2", 16, 2, hbs)),
        ("figure2", "HBS gap to approx, n_tx=32", 0.05, 0.35, gap("figure2", 32, 2, hbs)),
        ("figure2", "HBS gap to approx, n_tx=128", 0.0, 0.1, gap("figure2", 128, 2, hbs)),
        ("figure3", "ABS gap to saturation, n_beams=3", 0.0, 0.2, gap("figure3", 32, 3, abs_)),
        ("figure3", "ABS gap to saturation, n_beams=5", 0.05, 0.25, gap("figure3", 32, 5, abs_)),
        ("figure3", "HBS gap to approx, n_beams=5", 0.7, 1.3, gap("figure3", 32, 5, hbs)),
        ("figure4", "HBS gap to approx", 0.05, 0.35, gap("figure4", 128, 5, hbs)),
        ("figure4", "HBS gap shrinks vs n_tx=32", 0.0, gap("figure3", 32, 5, hbs),
         gap("figure4", 128, 5, hbs)),
        ("figure4", "ABS gap to saturation", 0.0, 0.2, gap("figure4", 128, 5, abs_)),
        ("figure4", "ABS gap shrinks vs n_tx=32", 0.0, gap("figure3", 32, 5, abs_),
         gap("figure4", 128, 5, abs_))]
    assert [(c.figure, c.name, c.lo, c.hi, c.measured) for c in checks] == expected
    # a shrink check's ceiling is the measured gap of its figure-3 check
    measured = {(c.figure, c.name): c.measured for c in checks}
    assert [c.hi for c in checks if "shrinks" in c.name] == [
        measured["figure3", "HBS gap to approx, n_beams=5"],
        measured["figure3", "ABS gap to saturation, n_beams=5"]]


def test_gram_kernel_once_per_chunk_and_array(monkeypatch):
    # ABS and HBS read the same Gram kernel R of a chunk: a sweep of all
    # three schemes over two arrays and two chunks computes it four times,
    # chunk by chunk, each chunk's on both arrays
    computed = []

    def gram(aods, config, gram=semetrics._gram):
        computed.append((config.n_tx, len(aods)))
        return gram(aods, config)

    monkeypatch.setattr(semetrics, "_gram", gram)
    cfg = ExperimentConfig(n_tx_list=(8, 16), n_beams_list=(3,), snr_db_grid=(0.0, 20.0),
                           trials=2 * semetrics._CHUNK, seed=3, schemes=tuple(Scheme),
                           bounds=False)
    run_sweep(cfg)
    chunk = semetrics._CHUNK
    assert computed == [(8, chunk), (16, chunk), (8, chunk), (16, chunk)]


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
