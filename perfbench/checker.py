"""Output checker: compares one job's output with the workload's stored
reference in ``reference/<workload>.json``.

A reference holds, per output row, the mean and the across-seed standard
deviation ``sd`` of that row over several reference seeds, captured at the
workload's trial count by ``suite.py capture``.

- Bound rows (empty ``se_stderr``) do not depend on the seed and must match
  to float rounding.
- A simulation row or validate measurement fails when it leaves the
  reference mean by more than ``Z_LIMIT`` combined standard errors, i.e.
  ``Z_LIMIT * sd * sqrt(1 + 1/M)`` for M reference seeds.  A different but
  valid random stream still passes; a wrong kernel does not.
- Validate checks are compared by measured value, not by PASS/FAIL status;
  the exit code must be 0 when every check passes and 2 otherwise.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
Z_LIMIT = 5.0
BOUND_RTOL = 1e-12
# The validate report prints 4 decimals; allow two units of its rounding.
REPORT_ATOL = 2e-4
_REPORT_LINE = re.compile(r"^(PASS|FAIL)\s+(\S+)\s+(\S+)\s+\[.*\]\s+(.*)$")


def parse_csv(text):
    """{row key: (value, kind)} from beamsteer CSV text."""
    rows = {}
    for r in csv.DictReader(io.StringIO(text)):
        key = "|".join((r["snr_db"], r["n_tx"], r["n_beams"], r["label"]))
        rows[key] = (float(r["se_mean"]), "sim" if r["se_stderr"] else "bound")
    return rows


def parse_report(text):
    """({check key: (measured, "sim")}, all_passed) from a validate report."""
    rows, all_passed = {}, True
    for line in text.splitlines():
        m = _REPORT_LINE.match(line)
        if m:
            status, figure, measured, name = m.groups()
            rows[f"{figure}|{name.strip()}"] = (float(measured), "sim")
            all_passed &= status == "PASS"
    return rows, all_passed


def parse_output(report, text):
    """Rows and the exit code a correct run gives, for a "csv" or
    "validate" output."""
    if report == "csv":
        return parse_csv(text), 0
    rows, all_passed = parse_report(text)
    return rows, 0 if all_passed else 2


def load_reference(workload):
    with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def tolerance(ref_row, n_seeds, report):
    if ref_row["kind"] == "bound":
        return BOUND_RTOL * max(1.0, abs(ref_row["mean"]))
    floor = REPORT_ATOL if report == "validate" else 0.0
    return max(Z_LIMIT * ref_row["sd"] * math.sqrt(1.0 + 1.0 / n_seeds), floor)


def failed_rows(reference, rows, exit_code, expected_exit):
    """Keys of reference rows the output gets wrong.  A wrong exit code or a
    missing or unexpected row fails every row."""
    ref_rows = reference["rows"]
    if exit_code != expected_exit or set(rows) != set(ref_rows):
        return sorted(ref_rows)
    n_seeds = len(reference["seeds"])
    bad = []
    for key, ref_row in ref_rows.items():
        value = rows[key][0]
        limit = tolerance(ref_row, n_seeds, reference["report"])
        if not (abs(value - ref_row["mean"]) <= limit):
            bad.append(key)
    return bad


def build_reference(workload, report, argv, seeds, outputs):
    """Reference from one (exit code, output text) per seed."""
    per_key = {}
    kinds = {}
    for code, text in outputs:
        rows, expected_exit = parse_output(report, text)
        if code != expected_exit:
            raise ValueError(f"reference job exited {code}, expected {expected_exit}")
        for key, (value, kind) in rows.items():
            per_key.setdefault(key, []).append(value)
            kinds[key] = kind
    if any(len(v) != len(seeds) for v in per_key.values()):
        raise ValueError("reference seeds disagree on the set of output rows")
    rows = {}
    for key, values in per_key.items():
        mean = math.fsum(values) / len(values)
        sd = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (len(values) - 1))
        rows[key] = {"kind": kinds[key], "mean": mean, "sd": sd}
    return {"workload": workload, "report": report, "argv": list(argv),
            "seeds": list(seeds), "rows": rows}
