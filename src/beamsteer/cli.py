"""Command-line experiment runner.

Subcommands: sweep, validate, bounds, figure1..figure4.  Results are
written as CSV (header ``snr_db,n_tx,n_beams,label,se_mean,se_stderr,
n_resampled``); ``validate`` prints a gap table and exits nonzero on
failure.

Exit codes: 0 success, 1 usage error, 2 validation failure.
"""

from __future__ import annotations

import argparse
import math
import sys

from .arrays import ArrayConfig
from .experiment import (DEFAULT_SEED, DEFAULT_SNR_GRID, DEFAULT_TRIALS,
                         ExperimentConfig, bound_rows, format_validation_report,
                         run_figure, run_sweep, run_validation, rows_to_csv,
                         write_csv)
from .semetrics import Scheme

USAGE_ERROR = 1
VALIDATION_FAILED = 2
# Most points a start:step:stop SNR range may expand to.
SNR_GRID_MAX = 10000


class UsageError(Exception):
    pass


def parse_snr_spec(spec: str):
    """SNR grid in dB: comma list ("-10,0,10") or start:step:stop (inclusive).

    Every value must be finite, and a range may hold at most SNR_GRID_MAX
    points; its size is checked before the grid is built.
    """
    spec = spec.strip()
    is_range = ":" in spec
    try:
        values = [float(x) for x in spec.split(":" if is_range else ",")]
        if is_range:
            start, step, stop = values
            if step <= 0 or stop < start:
                raise ValueError
    except ValueError:
        raise UsageError(f"bad SNR spec {spec!r}; use 'a,b,c' or 'start:step:stop'")
    if not all(math.isfinite(x) for x in values):
        raise UsageError(f"SNR spec {spec!r}: values must be finite")
    if not is_range:
        return tuple(values)
    too_many = f"SNR range {spec!r} has more than {SNR_GRID_MAX} points"
    if not (stop + 1e-9 - start) / step < SNR_GRID_MAX:
        raise UsageError(too_many)
    grid = []
    v = start
    while v <= stop + 1e-9:
        if len(grid) == SNR_GRID_MAX:  # the repeated sum drifted or stalled
            raise UsageError(too_many)
        grid.append(round(v, 10))
        v += step
    return tuple(grid)


def parse_int_list(spec: str):
    try:
        return tuple(int(x) for x in spec.split(","))
    except ValueError:
        raise UsageError(f"bad integer list {spec!r}")


def parse_schemes(spec: str):
    out = []
    for name in spec.split(","):
        try:
            out.append(Scheme(name.strip()))
        except ValueError:
            valid = ",".join(s.value for s in Scheme)
            raise UsageError(f"unknown scheme {name!r}; valid: {valid}")
    return tuple(out)


def positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1 (beams, trials, workers)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


# Keys a sweep config file may set, one per sweep flag.
CONFIG_KEYS = ("ntx", "nbeams", "snr_db", "trials", "seed", "spacing", "schemes")


def load_config_file(path: str) -> dict:
    """Flat key=value config file; '#' starts a comment.

    Keys are the sweep flags without dashes (``snr-db`` and ``snr_db`` are
    the same key); an unknown key is a usage error, not a silent default.
    """
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
            key, value = line.split("=", 1)
            key = key.strip().replace("-", "_")
            if key not in CONFIG_KEYS:
                raise UsageError(f"{path}:{lineno}: unknown key {key!r}; "
                                 f"valid: {', '.join(CONFIG_KEYS)}")
            values[key] = value.strip()
    return values


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_common(p, with_grid=True):
    if with_grid:
        p.add_argument("--ntx", help="comma list of transmit antenna counts")
        p.add_argument("--nbeams", type=positive_int,
                       help="number of beams (= users = RF chains)")
        p.add_argument("--snr-db", dest="snr_db", help="SNR grid, 'a,b,c' or 'start:step:stop'")
        p.add_argument("--spacing", type=float, help="element spacing in wavelengths")
        p.add_argument("--schemes", help="comma subset of ABS,HBS,NoInterference")
    p.add_argument("--trials", type=positive_int,
                   help=f"Monte Carlo trials (default {DEFAULT_TRIALS})")
    p.add_argument("--seed", type=int, help=f"master RNG seed (default {DEFAULT_SEED})")
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.add_argument("--threads", type=positive_int, default=1, help="worker processes (default 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="beamsteer", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="simulate a configurable grid")
    p.add_argument("--config", help="key=value config file; flags override it")
    p.add_argument("--no-bounds", action="store_true", help="omit bound rows")
    _add_common(p)

    p = sub.add_parser("validate", help="check simulation-vs-bound gaps")
    _add_common(p, with_grid=False)

    p = sub.add_parser("bounds", help="closed-form bounds only, no simulation")
    p.add_argument("--ntx", help="comma list of transmit antenna counts")
    p.add_argument("--nbeams", type=positive_int, help="number of beams")
    p.add_argument("--snr-db", dest="snr_db", help="SNR grid for the hybrid approximation")
    p.add_argument("--spacing", type=float, help="element spacing in wavelengths")
    p.add_argument("--out", help="output CSV path (default: stdout)")

    for name in ("figure1", "figure2", "figure3", "figure4"):
        p = sub.add_parser(name, help=f"reproduce the {name} scenario")
        _add_common(p, with_grid=False)
        p.add_argument("--snr-db", dest="snr_db", help="override the preset SNR grid")
    return parser


def _emit(rows, out_path):
    if out_path:
        write_csv(rows, out_path)
    else:
        sys.stdout.write(rows_to_csv(rows))


def _pick(args, cfg_file, key, parse, default):
    value = getattr(args, key, None)
    if value is not None:
        return parse(value) if isinstance(value, str) else value
    if key in cfg_file:
        return parse(cfg_file[key])
    return default


def _run_sweep(args) -> int:
    cfg_file = load_config_file(args.config) if args.config else {}
    cfg = ExperimentConfig(
        n_tx_list=_pick(args, cfg_file, "ntx", parse_int_list, (32,)),
        n_beams=int(_pick(args, cfg_file, "nbeams", int, 2)),
        snr_db_grid=_pick(args, cfg_file, "snr_db", parse_snr_spec, DEFAULT_SNR_GRID),
        trials=int(_pick(args, cfg_file, "trials", int, DEFAULT_TRIALS)),
        seed=int(_pick(args, cfg_file, "seed", int, DEFAULT_SEED)),
        spacing=float(_pick(args, cfg_file, "spacing", float, 0.5)),
        schemes=_pick(args, cfg_file, "schemes", parse_schemes, (Scheme.ABS,)),
        bounds=not args.no_bounds,
    )
    _emit(run_sweep(cfg, workers=args.threads), args.out)
    return 0


def _run_bounds(args) -> int:
    n_tx_list = parse_int_list(args.ntx) if args.ntx else (32,)
    n_beams = args.nbeams if args.nbeams is not None else 2
    grid = parse_snr_spec(args.snr_db) if args.snr_db else DEFAULT_SNR_GRID
    spacing = args.spacing if args.spacing is not None else 0.5
    rows = []
    for n_tx in n_tx_list:
        config = ArrayConfig(n_tx, spacing)  # the array checks sweep applies
        rows.extend(bound_rows(config.n_tx, n_beams, config.spacing, grid))
    _emit(rows, args.out)
    return 0


def _run_validate(args) -> int:
    checks = run_validation(trials=args.trials or DEFAULT_TRIALS,
                            seed=args.seed if args.seed is not None else DEFAULT_SEED,
                            workers=args.threads)
    print(format_validation_report(checks))
    return 0 if all(c.passed for c in checks) else VALIDATION_FAILED


def _run_figure(args) -> int:
    grid = parse_snr_spec(args.snr_db) if args.snr_db else DEFAULT_SNR_GRID
    rows = run_figure(args.command,
                      trials=args.trials or DEFAULT_TRIALS,
                      seed=args.seed if args.seed is not None else DEFAULT_SEED,
                      snr_db_grid=grid, workers=args.threads)
    _emit(rows, args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "sweep":
            return _run_sweep(args)
        if args.command == "validate":
            return _run_validate(args)
        if args.command == "bounds":
            return _run_bounds(args)
        return _run_figure(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
