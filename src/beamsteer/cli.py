"""Command-line experiment runner.

Subcommands: sweep, validate, bounds and figure1..figure4, the sweeps of
``experiment.FIGURES``.  Results are written as CSV (header ``snr_db,n_tx,
n_beams,label,se_mean,se_stderr,n_resampled``); ``validate`` prints a gap
table and exits nonzero on failure.

Exit codes: 0 success, 1 usage error, 2 validation failure.
"""

from __future__ import annotations

import argparse
import math
import sys

from .arrays import ArrayConfig
from .experiment import (DEFAULT_SEED, DEFAULT_SNR_GRID, DEFAULT_TRIALS, FIGURE_SPACING,
                         FIGURES, ExperimentConfig, bound_rows, format_validation_report,
                         run_sweep, run_validation, rows_to_csv, write_csv)
from .semetrics import Scheme

USAGE_ERROR = 1
VALIDATION_FAILED = 2
# Most points a start:step:stop SNR range may expand to.
SNR_GRID_MAX = 10000


class UsageError(argparse.ArgumentTypeError):
    """Bad command-line input; as a flag's ``type=`` error argparse prefixes the flag."""


def parse_snr_spec(spec: str):
    """SNR grid in dB: comma list ("-10,0,10") or start:step:stop (inclusive).

    Every value must be finite; a range of at most SNR_GRID_MAX points, counted
    before it is built, has point i at round(start + i*step, 10).  The grid must
    be strictly increasing, which a range whose step vanishes in rounding is not.
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
    if is_range:
        count = (stop + 1e-9 - start) / step
        if not count < SNR_GRID_MAX:
            raise UsageError(f"SNR range {spec!r} has more than {SNR_GRID_MAX} points")
        values = [round(start + i * step, 10) for i in range(int(count) + 1)]
    if any(b <= a for a, b in zip(values, values[1:])):
        raise UsageError(f"SNR grid {spec!r} must be strictly increasing")
    return tuple(values)


def _distinct(values, spec: str):
    """The parsed list, unless an entry repeats: it would give duplicate rows."""
    if len(set(values)) < len(values):
        raise UsageError(f"{spec!r} repeats an entry")
    return tuple(values)


def parse_int_list(spec: str):
    try:
        return _distinct([positive_int(x) for x in spec.split(",")], spec)
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
    """argparse type for counts that must be at least 1 (antennas, beams, trials, workers)."""
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


# Every input, declared once with its parse function and its default; each
# command takes the inputs it uses, in order.
ARGUMENTS = {
    "--snr-db": dict(dest="snr_db", type=parse_snr_spec, default=DEFAULT_SNR_GRID,
                     help="SNR grid in dB, 'a,b,c' or 'start:step:stop' (default -10:5:30); "
                          "a value starting with '-' needs the '=' form: --snr-db=-10:5:30"),
    "--ntx": dict(type=parse_int_list, default=(32,),
                  help="comma list of transmit antenna counts (default 32)"),
    "--nbeams": dict(type=parse_int_list, default=(2,),
                     help="comma list of beam counts (= users = RF chains, default 2)"),
    "--spacing": dict(type=float, default=0.5,
                      help="element spacing in wavelengths (default 0.5)"),
    "--trials": dict(type=positive_int, default=DEFAULT_TRIALS,
                     help=f"Monte Carlo trials (default {DEFAULT_TRIALS})"),
    "--seed": dict(type=int, default=DEFAULT_SEED,
                   help=f"master RNG seed (default {DEFAULT_SEED})"),
    "--threads": dict(type=positive_int, default=1,
                      help="processes that simulate the chunks: this one and a pool of the "
                           "rest, capped by the chunk count and usable CPUs (default 1)"),
    "--out": dict(help="output CSV path (default: stdout)"),
    "--schemes": dict(type=parse_schemes, default=(Scheme.ABS,),
                      help="comma subset of ABS,HBS,NoInterference (default ABS)"),
    "--config": dict(help="key=value config file; flags override it"),
    "--no-bounds": dict(action="store_true", help="omit bound rows"),
}
_GRID = ("--snr-db", "--ntx", "--nbeams", "--spacing")
_RUN = ("--trials", "--seed", "--threads")


def _emit(rows, out_path):
    if out_path:
        write_csv(rows, out_path)
    else:
        sys.stdout.write(rows_to_csv(rows))


def _run_sweep(args) -> int:
    cfg = ExperimentConfig(n_tx_list=args.ntx, n_beams_list=args.nbeams, snr_db_grid=args.snr_db,
                           trials=args.trials, seed=args.seed, spacing=args.spacing,
                           schemes=args.schemes, bounds=not args.no_bounds)
    _emit(run_sweep(cfg, workers=args.threads), args.out)
    return 0


def _run_bounds(args) -> int:
    rows = []
    for n_beams in args.nbeams:
        for n_tx in args.ntx:
            config = ArrayConfig(n_tx, args.spacing)  # the array checks sweep applies
            rows.extend(bound_rows(config.n_tx, n_beams, config.spacing, args.snr_db))
    _emit(rows, args.out)
    return 0


def _run_validate(args) -> int:
    checks = run_validation(trials=args.trials, seed=args.seed, workers=args.threads)
    print(format_validation_report(checks))
    return 0 if all(c.passed for c in checks) else VALIDATION_FAILED


# name -> (help, inputs, defaults) of each command
COMMANDS = {
    "sweep": ("simulate a configurable grid",
              _GRID + _RUN + ("--out", "--schemes", "--config", "--no-bounds"),
              {"run": _run_sweep}),
    "validate": ("check simulation-vs-bound gaps", _RUN, {"run": _run_validate}),
    "bounds": ("closed-form bounds only, no simulation", _GRID + ("--out",), {"run": _run_bounds}),
    **{name: (f"reproduce the {name} scenario", ("--snr-db",) + _RUN + ("--out",),
              {"run": _run_sweep, "spacing": FIGURE_SPACING, "no_bounds": False, **preset})
       for name, preset in FIGURES.items()},
}


def _add_command(parser, name):
    _, flags, defaults = COMMANDS[name]
    for flag in flags:
        parser.add_argument(flag, **ARGUMENTS[flag])
    parser.set_defaults(**defaults)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, each a subcommand."""
    parser = _Parser(prog="beamsteer", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, _, _) in COMMANDS.items():
        _add_command(sub.add_parser(name, help=text), name)
    return parser


def command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of command ``name`` alone: the subparser ``build_parser``
    makes, with its prog, arguments and defaults, and the command's name."""
    parser = _add_command(_Parser(prog=f"beamsteer {name}"), name)
    parser.set_defaults(command=name)
    return parser


def _parse(parser, argv):
    """Parse argv; a sweep's --config file is read as ``--key=value`` flags
    placed before the command line's own, so the flags override it (the last
    value wins) and its values get the flags' checks."""
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        file_flags = [f"--{key.replace('_', '-')}={value}"
                      for key, value in load_config_file(args.config).items()]
        args = parser.parse_args(file_flags + argv)
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if argv and argv[0] in COMMANDS:
            args = _parse(command_parser(argv[0]), argv[1:])
        else:  # help, or no command or an unknown one: the full parser says so
            args = build_parser().parse_args(argv)
        return args.run(args)
    except (UsageError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
