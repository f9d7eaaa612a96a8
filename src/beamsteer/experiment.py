"""Experiment sweeps, CSV output, and bound-vs-simulation validation checks
of the paper's four figures, whose one table is ``FIGURES``."""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .arrays import ArrayConfig
from .bounds import abs_saturation_bound, hbs_se_approx
from .semetrics import Scheme, SnrPoint, run_monte_carlo

CSV_HEADER = "snr_db,n_tx,n_beams,label,se_mean,se_stderr,n_resampled"

DEFAULT_TRIALS = 50000
DEFAULT_SEED = 12345
DEFAULT_SNR_GRID = tuple(float(x) for x in range(-10, 31, 5))

ABS_SATURATION_LABEL = "AbsSaturationBound"
HBS_APPROX_LABEL = "HbsApproxBound"

# The paper's figures: each is a sweep at FIGURE_SPACING with bound rows; N_RF = K = N_b.
FIGURE_SPACING = 0.5
FIGURES = {
    "figure1": {"ntx": (16, 32, 128), "nbeams": (2,), "schemes": (Scheme.ABS,)},
    "figure2": {"ntx": (16, 32, 128), "nbeams": (2,),
                "schemes": (Scheme.HBS, Scheme.NO_INTERFERENCE)},
    "figure3": {"ntx": (32,), "nbeams": (2, 3, 5), "schemes": (Scheme.ABS, Scheme.HBS)},
    "figure4": {"ntx": (128,), "nbeams": (5,), "schemes": (Scheme.ABS, Scheme.HBS)},
}


@dataclass(frozen=True)
class ExperimentConfig:
    n_tx_list: tuple
    n_beams_list: tuple
    snr_db_grid: tuple = DEFAULT_SNR_GRID
    trials: int = DEFAULT_TRIALS
    seed: int = DEFAULT_SEED
    spacing: float = 0.5
    schemes: tuple = (Scheme.ABS,)
    bounds: bool = True

    def __post_init__(self):
        # each cell checks its counts and scheme list before any draw (check_cell)
        for name in ("n_tx_list", "n_beams_list"):
            values = getattr(self, name)
            if not values:
                raise ValueError(f"{name} must be non-empty")
            if len(set(values)) < len(values):
                raise ValueError(f"{name} {values!r} repeats an entry")
        grid = list(self.snr_db_grid)
        if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("snr_db_grid must be non-empty and strictly increasing")


@dataclass(frozen=True)
class ResultRow:
    snr_db: float | None  # None for SNR-independent bound rows
    n_tx: int
    n_beams: int
    label: str
    se_mean: float
    se_stderr: float | None
    n_resampled: int | None


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    for r in rows:
        buf.write(",".join([_fmt(r.snr_db), _fmt(r.n_tx), _fmt(r.n_beams),
                            r.label, _fmt(r.se_mean), _fmt(r.se_stderr),
                            _fmt(r.n_resampled)]) + "\n")
    return buf.getvalue()


def write_csv(rows, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(rows_to_csv(rows))


def bound_rows(n_tx: int, n_beams: int, spacing: float, snr_db_grid, schemes=tuple(Scheme)):
    """Closed-form bound rows of one (n_tx, n_beams) cell simulating ``schemes``
    (default: all): ABS's SNR-independent saturation level once, with two or
    more beams, and the hybrid approximation of HBS and NoInterference at each
    SNR point."""
    rows = []
    if Scheme.ABS in schemes and n_beams >= 2:
        rows.append(ResultRow(snr_db=None, n_tx=n_tx, n_beams=n_beams,
                              label=ABS_SATURATION_LABEL,
                              se_mean=abs_saturation_bound(n_tx, spacing, n_beams),
                              se_stderr=None, n_resampled=None))
    if Scheme.HBS in schemes or Scheme.NO_INTERFERENCE in schemes:
        for snr_db in snr_db_grid:
            rows.append(ResultRow(snr_db=snr_db, n_tx=n_tx, n_beams=n_beams,
                                  label=HBS_APPROX_LABEL,
                                  se_mean=hbs_se_approx(SnrPoint.from_db(snr_db), n_tx),
                                  se_stderr=None, n_resampled=None))
    return rows


def run_sweep(cfg: ExperimentConfig, workers: int = 1):
    """Simulate every (n_beams, n_tx, scheme, snr) grid point, plus bound rows,
    beam count outermost.

    Each (n_beams, n_tx) cell is one simulation of all the schemes whose gains
    are reduced at every SNR point, and every array of a beam count uses the
    same master seed and so the same draws (common random numbers), drawn once
    for the whole sweep by one ``run_monte_carlo`` call.
    """
    snrs = [SnrPoint.from_db(snr_db) for snr_db in cfg.snr_db_grid]
    grid = [(n_beams, n_tx) for n_beams in cfg.n_beams_list for n_tx in cfg.n_tx_list]
    cells = [(n_beams, ArrayConfig(n_tx=n_tx, spacing=cfg.spacing), cfg.schemes, snrs)
             for n_beams, n_tx in grid]
    rows = []
    for (n_beams, n_tx), cell in zip(grid, run_monte_carlo(cells, cfg.trials, cfg.seed, workers)):
        for scheme, estimates in zip(cfg.schemes, cell):
            for snr_db, est in zip(cfg.snr_db_grid, estimates):
                rows.append(ResultRow(snr_db=snr_db, n_tx=n_tx,
                                      n_beams=n_beams, label=scheme.value,
                                      se_mean=est.mean, se_stderr=est.std_error,
                                      n_resampled=est.n_resampled))
        if cfg.bounds:
            rows.extend(bound_rows(n_tx, n_beams, cfg.spacing, cfg.snr_db_grid, cfg.schemes))
    return rows


@dataclass(frozen=True)
class ValidationCheck:
    figure: str
    name: str
    measured: float
    lo: float
    hi: float

    @property
    def passed(self) -> bool:
        return self.lo <= self.measured <= self.hi


def run_validation(trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED,
                   workers: int = 1):
    """Measure the simulation-vs-bound gaps of the four figure scenarios at
    rho = 30 dB against their windows, from one run of each array of ``FIGURES``
    at 30 and 25 dB with the schemes of every figure that prints it."""
    arrays = {}  # (n_beams, n_tx) -> the schemes of every figure printing it
    for fig in FIGURES.values():
        for key in ((n_beams, n_tx) for n_beams in fig["nbeams"] for n_tx in fig["ntx"]):
            arrays[key] = tuple(dict.fromkeys(arrays.get(key, ()) + fig["schemes"]))
    estimates = run_monte_carlo(
        [(n_beams, ArrayConfig(n_tx=n_tx, spacing=FIGURE_SPACING), schemes,
          [SnrPoint.from_db(30.0), SnrPoint.from_db(25.0)])
         for (n_beams, n_tx), schemes in arrays.items()], trials, seed, workers)
    gap, flatness = {}, {}  # by (n_tx, n_beams, scheme): |SE - bound| at 30 dB, |SE30 - SE25|
    for ((n_beams, n_tx), schemes), cell in zip(arrays.items(), estimates):
        saturation, approx = bound_rows(n_tx, n_beams, FIGURE_SPACING, (30.0,), schemes)
        for scheme, (at30, at25) in zip(schemes, cell):
            bound = saturation if scheme is Scheme.ABS else approx
            gap[n_tx, n_beams, scheme] = abs(at30.mean - bound.se_mean)
            flatness[n_tx, n_beams, scheme] = abs(at30.mean - at25.mean)
    name = {Scheme.ABS: "ABS gap to saturation", Scheme.HBS: "HBS gap to approx"}
    checks = []

    # Figure 1: analog saturation, K = 2.
    for n_tx in (16, 32, 128):
        checks.append(ValidationCheck("figure1", f"{name[Scheme.ABS]}, n_tx={n_tx}",
                                      gap[n_tx, 2, Scheme.ABS], 0.0, 0.2))
        checks.append(ValidationCheck("figure1", f"ABS flatness 25->30 dB, n_tx={n_tx}",
                                      flatness[n_tx, 2, Scheme.ABS], 0.0, 0.05))

    # Figure 2: hybrid vs Log-Rayleigh approximation, K = 2.
    for n_tx, (lo, hi) in {16: (0.15, 0.45), 32: (0.05, 0.35), 128: (0.0, 0.1)}.items():
        checks.append(ValidationCheck("figure2", f"{name[Scheme.HBS]}, n_tx={n_tx}",
                                      gap[n_tx, 2, Scheme.HBS], lo, hi))

    # Figure 3: n_tx = 32, multiple beam counts.
    for n_beams, scheme, lo, hi in ((3, Scheme.ABS, 0.0, 0.2), (5, Scheme.ABS, 0.05, 0.25),
                                    (5, Scheme.HBS, 0.7, 1.3)):
        checks.append(ValidationCheck("figure3", f"{name[scheme]}, n_beams={n_beams}",
                                      gap[32, n_beams, scheme], lo, hi))

    # Figure 4: n_tx = 128, n_beams = 5; both gaps shrink vs figure 3.
    for scheme, lo, hi in ((Scheme.HBS, 0.05, 0.35), (Scheme.ABS, 0.0, 0.2)):
        checks.append(ValidationCheck("figure4", name[scheme], gap[128, 5, scheme], lo, hi))
        checks.append(ValidationCheck("figure4", f"{scheme.value} gap shrinks vs n_tx=32",
                                      gap[128, 5, scheme], 0.0, gap[32, 5, scheme]))
    return checks


def format_validation_report(checks) -> str:
    lines = [f"{'status':6}  {'figure':8}  {'measured':>9}  {'window':>18}  check"]
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(f"{status:6}  {c.figure:8}  {c.measured:9.4f}  "
                     f"[{c.lo:7.4f}, {c.hi:7.4f}]  {c.name}")
    n_fail = sum(not c.passed for c in checks)
    lines.append(f"{len(checks) - n_fail}/{len(checks)} checks passed")
    return "\n".join(lines)
