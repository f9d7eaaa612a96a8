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


class UsageError(argparse.ArgumentTypeError):
    """Bad command-line input; as a flag's ``type=`` error argparse prefixes the flag."""


def parse_snr_spec(spec: str):
    """SNR grid in dB: comma list ("-10,0,10") or start:step:stop (inclusive).

    Every value must be finite and a list strictly increasing; a range may
    hold at most SNR_GRID_MAX points, counted before the grid is built.
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
        if any(b <= a for a, b in zip(values, values[1:])):
            raise UsageError(f"SNR list {spec!r} must be strictly increasing")
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


def _distinct(values, spec: str):
    """The parsed list, unless an entry repeats: it would give duplicate rows."""
    if len(set(values)) < len(values):
        raise UsageError(f"{spec!r} repeats an entry")
    return tuple(values)


def parse_int_list(spec: str):
    try:
        return _distinct([int(x) for x in spec.split(",")], spec)
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
    return _distinct(out, spec)


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


def build_parser() -> argparse.ArgumentParser:
    # Parent parsers: each input is declared once, with its parse function
    # and its default, and the commands take the groups they use.
    snr = _Parser(add_help=False)
    snr.add_argument("--snr-db", dest="snr_db", type=parse_snr_spec, default=DEFAULT_SNR_GRID,
                     help="SNR grid in dB, 'a,b,c' or 'start:step:stop' (default -10:5:30); "
                          "a value starting with '-' needs the '=' form: --snr-db=-10:5:30")
    grid = _Parser(add_help=False, parents=[snr])
    grid.add_argument("--ntx", type=parse_int_list, default=(32,),
                      help="comma list of transmit antenna counts (default 32)")
    grid.add_argument("--nbeams", type=positive_int, default=2,
                      help="number of beams (= users = RF chains, default 2)")
    grid.add_argument("--spacing", type=float, default=0.5,
                      help="element spacing in wavelengths (default 0.5)")
    run = _Parser(add_help=False)
    run.add_argument("--trials", type=positive_int, default=DEFAULT_TRIALS,
                     help=f"Monte Carlo trials (default {DEFAULT_TRIALS})")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED,
                     help=f"master RNG seed (default {DEFAULT_SEED})")
    run.add_argument("--threads", type=positive_int, default=1,
                     help="worker processes for the draw stage, one pool per command "
                          "(default 1)")
    out = _Parser(add_help=False)
    out.add_argument("--out", help="output CSV path (default: stdout)")

    parser = _Parser(prog="beamsteer", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("sweep", parents=[grid, run, out], help="simulate a configurable grid")
    p.add_argument("--schemes", type=parse_schemes, default=(Scheme.ABS,),
                   help="comma subset of ABS,HBS,NoInterference (default ABS)")
    p.add_argument("--config", help="key=value config file; flags override it")
    p.add_argument("--no-bounds", action="store_true", help="omit bound rows")
    p.set_defaults(run=_run_sweep)
    sub.add_parser("validate", parents=[run], help="check simulation-vs-bound gaps"
                   ).set_defaults(run=_run_validate)
    sub.add_parser("bounds", parents=[grid, out], help="closed-form bounds only, no simulation"
                   ).set_defaults(run=_run_bounds)
    for name in ("figure1", "figure2", "figure3", "figure4"):
        sub.add_parser(name, parents=[snr, run, out], help=f"reproduce the {name} scenario"
                       ).set_defaults(run=_run_figure)
    return parser


def _emit(rows, out_path):
    if out_path:
        write_csv(rows, out_path)
    else:
        sys.stdout.write(rows_to_csv(rows))


def _run_sweep(args) -> int:
    cfg = ExperimentConfig(n_tx_list=args.ntx, n_beams=args.nbeams, snr_db_grid=args.snr_db,
                           trials=args.trials, seed=args.seed, spacing=args.spacing,
                           schemes=args.schemes, bounds=not args.no_bounds)
    _emit(run_sweep(cfg, workers=args.threads), args.out)
    return 0


def _run_bounds(args) -> int:
    rows = []
    for n_tx in args.ntx:
        config = ArrayConfig(n_tx, args.spacing)  # the array checks sweep applies
        rows.extend(bound_rows(config.n_tx, args.nbeams, config.spacing, args.snr_db))
    _emit(rows, args.out)
    return 0


def _run_validate(args) -> int:
    checks = run_validation(trials=args.trials, seed=args.seed, workers=args.threads)
    print(format_validation_report(checks))
    return 0 if all(c.passed for c in checks) else VALIDATION_FAILED


def _run_figure(args) -> int:
    rows = run_figure(args.command, trials=args.trials, seed=args.seed,
                      snr_db_grid=args.snr_db, workers=args.threads)
    _emit(rows, args.out)
    return 0


def _parse(parser, argv):
    """Parse argv; a sweep's --config file is read as ``--key=value`` flags
    placed before the command line's own, so the flags override it (the last
    value wins) and its values get the flags' checks."""
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        file_flags = [f"--{key.replace('_', '-')}={value}"
                      for key, value in load_config_file(args.config).items()]
        args = parser.parse_args(argv[:1] + file_flags + argv[1:])
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(build_parser(), argv)
        return args.run(args)
    except (UsageError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
