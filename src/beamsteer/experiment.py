"""Experiment sweeps, figure presets, CSV output, and bound-vs-simulation
validation checks."""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .arrays import ArrayConfig
from .bounds import abs_saturation_bound, hbs_se_approx
from .semetrics import Scheme, SnrPoint, check_cell, draw_blocks, run_monte_carlo

CSV_HEADER = "snr_db,n_tx,n_beams,label,se_mean,se_stderr,n_resampled"

DEFAULT_TRIALS = 50000
DEFAULT_SEED = 12345
DEFAULT_SNR_GRID = tuple(float(x) for x in range(-10, 31, 5))

ABS_SATURATION_LABEL = "AbsSaturationBound"
HBS_APPROX_LABEL = "HbsApproxBound"


@dataclass(frozen=True)
class ExperimentConfig:
    n_tx_list: tuple
    n_beams: int
    snr_db_grid: tuple = DEFAULT_SNR_GRID
    trials: int = DEFAULT_TRIALS
    seed: int = DEFAULT_SEED
    spacing: float = 0.5
    schemes: tuple = (Scheme.ABS,)
    bounds: bool = True

    def __post_init__(self):
        if not self.n_tx_list:
            raise ValueError("n_tx_list must be non-empty")
        grid = list(self.snr_db_grid)
        if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("snr_db_grid must be non-empty and strictly increasing")
        if not self.schemes:
            raise ValueError("at least one scheme is required")
        for name in ("n_tx_list", "schemes"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ValueError(f"{name} {values!r} repeats an entry")


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


def bound_rows(n_tx: int, n_beams: int, spacing: float, snr_db_grid,
               include_saturation: bool = True, include_hbs: bool = True):
    """Closed-form bound rows for one (n_tx, n_beams) cell.

    The analog saturation level is SNR-independent and emitted once; the
    hybrid approximation is evaluated per SNR point.
    """
    rows = []
    if include_saturation and n_beams >= 2:
        rows.append(ResultRow(snr_db=None, n_tx=n_tx, n_beams=n_beams,
                              label=ABS_SATURATION_LABEL,
                              se_mean=abs_saturation_bound(n_tx, spacing, n_beams),
                              se_stderr=None, n_resampled=None))
    if include_hbs:
        for snr_db in snr_db_grid:
            rows.append(ResultRow(snr_db=snr_db, n_tx=n_tx, n_beams=n_beams,
                                  label=HBS_APPROX_LABEL,
                                  se_mean=hbs_se_approx(SnrPoint.from_db(snr_db), n_tx),
                                  se_stderr=None, n_resampled=None))
    return rows


def simulate_cells(cells, trials: int, seed: int, workers: int = 1):
    """Estimates of each (n_users, ArrayConfig, schemes, snrs) cell of a command.

    A trial's draws do not depend on the array or the scheme, so every cell
    is checked, then one ``draw_blocks`` call draws one block per user count
    (over one pool of ``workers`` processes) and each cell's
    ``run_monte_carlo`` reads the block of its user count.  A cell's
    estimates, one tuple per scheme, are those of its own ``run_monte_carlo``
    call without the block.
    """
    for n_users, config, schemes, snrs in cells:
        check_cell(config, n_users, schemes, snrs, trials)
    blocks = draw_blocks(seed, dict.fromkeys(cell[0] for cell in cells), trials, workers=workers)
    return [run_monte_carlo(config, n_users, schemes, snrs, trials, seed, block=blocks[n_users])
            for n_users, config, schemes, snrs in cells]


def run_sweep(cfg: ExperimentConfig, workers: int = 1):
    """Simulate every (n_tx, scheme, snr) grid point, plus bound rows.

    Each array is one simulation of all the schemes whose gains are reduced
    at every SNR point, and every array uses the same master seed and so the
    same draws (common random numbers), drawn once for the whole sweep.
    """
    snrs = [SnrPoint.from_db(snr_db) for snr_db in cfg.snr_db_grid]
    cells = [(cfg.n_beams, ArrayConfig(n_tx=n_tx, spacing=cfg.spacing), cfg.schemes, snrs)
             for n_tx in cfg.n_tx_list]
    rows = []
    for n_tx, cell in zip(cfg.n_tx_list, simulate_cells(cells, cfg.trials, cfg.seed, workers)):
        for scheme, estimates in zip(cfg.schemes, cell):
            for snr_db, est in zip(cfg.snr_db_grid, estimates):
                rows.append(ResultRow(snr_db=snr_db, n_tx=n_tx,
                                      n_beams=cfg.n_beams, label=scheme.value,
                                      se_mean=est.mean, se_stderr=est.std_error,
                                      n_resampled=est.n_resampled))
        if cfg.bounds:
            has_abs = Scheme.ABS in cfg.schemes
            has_hbs = any(s in cfg.schemes for s in (Scheme.HBS, Scheme.NO_INTERFERENCE))
            rows.extend(bound_rows(n_tx, cfg.n_beams, cfg.spacing, cfg.snr_db_grid,
                                   include_saturation=has_abs, include_hbs=has_hbs))
    return rows


# Figure presets: d = 0.5, 50000 trials, SNR -10:5:30 dB, N_RF = K = N_b.
FIGURE_PRESETS = {
    "figure1": {"n_tx_list": (16, 32, 128), "n_beams_list": (2,),
                "schemes": (Scheme.ABS,)},
    "figure2": {"n_tx_list": (16, 32, 128), "n_beams_list": (2,),
                "schemes": (Scheme.HBS, Scheme.NO_INTERFERENCE)},
    "figure3": {"n_tx_list": (32,), "n_beams_list": (2, 3, 5),
                "schemes": (Scheme.ABS, Scheme.HBS)},
    "figure4": {"n_tx_list": (128,), "n_beams_list": (5,),
                "schemes": (Scheme.ABS, Scheme.HBS)},
}


def run_figure(name: str, trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED,
               snr_db_grid=DEFAULT_SNR_GRID, workers: int = 1):
    preset = FIGURE_PRESETS[name]
    rows = []
    for nb in preset["n_beams_list"]:
        cfg = ExperimentConfig(n_tx_list=preset["n_tx_list"], n_beams=nb,
                               snr_db_grid=tuple(snr_db_grid), trials=trials,
                               seed=seed, schemes=preset["schemes"], bounds=True)
        rows.extend(run_sweep(cfg, workers=workers))
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
    rho = 30 dB and compare them against their expected windows."""
    fig2_windows = {16: (0.15, 0.45), 32: (0.05, 0.35), 128: (0.0, 0.1)}
    fig3_windows = {3: (0.0, 0.2), 5: (0.05, 0.25)}
    both = (Scheme.ABS, Scheme.HBS)
    # (n_beams, n_tx, schemes, SNRs in dB) of every array; one draw serves
    # them all.  An HBS estimate at 25 dB goes unused.
    cells = [(2, n_tx, both, (30.0, 25.0)) for n_tx in (16, 32, 128)]
    cells += [(3, 32, (Scheme.ABS,), (30.0,)), (5, 32, both, (30.0,)), (5, 128, both, (30.0,))]
    estimates = simulate_cells(
        [(n_beams, ArrayConfig(n_tx=n_tx, spacing=0.5), schemes,
          [SnrPoint.from_db(x) for x in snr_dbs]) for n_beams, n_tx, schemes, snr_dbs in cells],
        trials, seed, workers)
    se = {}  # (n_tx, n_beams, scheme) -> mean SE at each of the cell's SNRs
    for (n_beams, n_tx, schemes, _), cell in zip(cells, estimates):
        for scheme, scheme_estimates in zip(schemes, cell):
            se[n_tx, n_beams, scheme] = [est.mean for est in scheme_estimates]
    checks = []

    # Figure 1: analog saturation, K = 2.
    for n_tx in (16, 32, 128):
        bound = abs_saturation_bound(n_tx, 0.5, 2)
        se30, se25 = se[n_tx, 2, Scheme.ABS]
        checks.append(ValidationCheck("figure1", f"ABS gap to saturation, n_tx={n_tx}",
                                      abs(se30 - bound), 0.0, 0.2))
        checks.append(ValidationCheck("figure1", f"ABS flatness 25->30 dB, n_tx={n_tx}",
                                      abs(se30 - se25), 0.0, 0.05))

    # Figure 2: hybrid vs Log-Rayleigh approximation, K = 2.
    for n_tx, (lo, hi) in fig2_windows.items():
        approx = hbs_se_approx(SnrPoint.from_db(30.0), n_tx)
        checks.append(ValidationCheck("figure2", f"HBS gap to approx, n_tx={n_tx}",
                                      abs(se[n_tx, 2, Scheme.HBS][0] - approx), lo, hi))

    # Figure 3: n_tx = 32, multiple beam counts.
    fig3_abs = {}
    for n_beams, (lo, hi) in fig3_windows.items():
        bound = abs_saturation_bound(32, 0.5, n_beams)
        fig3_abs[n_beams] = abs(se[32, n_beams, Scheme.ABS][0] - bound)
        checks.append(ValidationCheck("figure3", f"ABS gap to saturation, n_beams={n_beams}",
                                      fig3_abs[n_beams], lo, hi))
    approx = hbs_se_approx(SnrPoint.from_db(30.0), 32)
    fig3_hbs = abs(se[32, 5, Scheme.HBS][0] - approx)
    checks.append(ValidationCheck("figure3", "HBS gap to approx, n_beams=5",
                                  fig3_hbs, 0.7, 1.3))

    # Figure 4: n_tx = 128, n_beams = 5; both gaps shrink vs figure 3.
    approx = hbs_se_approx(SnrPoint.from_db(30.0), 128)
    fig4_hbs = abs(se[128, 5, Scheme.HBS][0] - approx)
    checks.append(ValidationCheck("figure4", "HBS gap to approx",
                                  fig4_hbs, 0.05, 0.35))
    checks.append(ValidationCheck("figure4", "HBS gap shrinks vs n_tx=32",
                                  fig4_hbs, 0.0, fig3_hbs))
    bound = abs_saturation_bound(128, 0.5, 5)
    fig4_abs = abs(se[128, 5, Scheme.ABS][0] - bound)
    checks.append(ValidationCheck("figure4", "ABS gap to saturation",
                                  fig4_abs, 0.0, 0.2))
    checks.append(ValidationCheck("figure4", "ABS gap shrinks vs n_tx=32",
                                  fig4_abs, 0.0, fig3_abs[5]))
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
