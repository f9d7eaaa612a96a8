"""beamsteer benchmark: one workload, one seed, one timed run.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload fig4-hbs --seed 1 --seconds 45 --trace 0

Runs the workload's real CLI job in fresh interpreters against this tree's
``src/`` (or that of ``--tree``), one job after the other (closed loop) until
``--seconds`` have passed, and checks every job's output against the stored
reference.  The last stdout line is a JSON object with ``correct``,
``attempted`` and ``failed`` (output rows checked and rows wrong, over all
jobs) and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of ``tracer.py`` with ``--trace 1``.  Exits 2 without a
result when the tree has no ``src/beamsteer`` or the package resolves
elsewhere.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import checker
from job import PACKAGE_OUTSIDE_TREE, THREAD_VARS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES_MIN = 25
# Every job must end this long after --seconds have passed: room for the
# last closed-loop iteration (up to three jobs when traced) on a slow host.
JOB_MARGIN_S = 90.0
# The longest --seconds that, with the margin, keeps a run within 180 s.
MAX_SECONDS = 60.0
REFUSED = 2


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple               # CLI arguments, without --seed and --out
    report: str               # "csv" (written to --out) or "validate" (stdout)
    single_argv: tuple = ()   # traced single-process pass for in-pool counts


WORKLOADS = {w.name: w for w in (
    Workload("fig4-hbs", ("figure4", "--trials", "2048"), "csv"),
    Workload("validate-pool", ("validate", "--trials", "4096", "--threads", "2"), "validate",
             ("validate", "--trials", "4096", "--threads", "1")),
)}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
# Metrics a pool hides from the parent's trace; a workload with single_argv
# takes them from its single-process pass.
IN_POOL_METRICS = ("channel.draw.calls", "channel.draw.s", "semetrics.kernel.self_s",
                   "semetrics.zf_solve.calls", "semetrics.zf_solve.s",
                   "beamforming.fallback.calls", "beamforming.fallback.s")


class Refused(Exception):
    """The tree cannot be measured; the run ends without a result."""


def child_env(tree):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(tree / "src")
    # The only parallelism is what a workload asks for (--threads).
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _run(cmd, tree, deadline):
    """Run cmd in its own process group; kill the group at the deadline."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(tree), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
    return proc.returncode, out, err


def setup_sample(tree, deadline):
    """Seconds from a fresh interpreter's start through ``import beamsteer.cli``."""
    t0 = time.perf_counter()
    code, _, err = _run([sys.executable, "-c", "import beamsteer.cli"], tree, deadline)
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise Refused(f"import beamsteer.cli failed:\n{err}")
    return elapsed


def run_job(wl, argv, seed, work, trace, deadline, tree=ROOT):
    """One CLI job in a fresh interpreter: its measurements (empty if it
    died), CLI exit code and output text."""
    out_path = work / "out.csv"
    result_path = work / "job.json"
    for p in (out_path, result_path):
        p.unlink(missing_ok=True)
    cli = [*argv, "--seed", str(seed)]
    if wl.report == "csv":
        cli += ["--out", str(out_path)]
    cmd = [sys.executable, str(HERE / "job.py"), str(tree / "src"), str(result_path),
           "1" if trace else "0", "--", *cli]
    code, stdout, stderr = _run(cmd, tree, deadline)
    if code == PACKAGE_OUTSIDE_TREE:
        raise Refused(stderr)
    job = {}
    if code == 0 and result_path.exists():
        job = json.loads(result_path.read_text(encoding="utf-8"))
    if job.get("exit_code") not in (0, 2) and stderr:
        print(stderr[-2000:], file=sys.stderr)
    job["text"] = stdout
    if wl.report == "csv":
        job["text"] = out_path.read_text(encoding="utf-8") if out_path.exists() else ""
    return job


def check_job(wl, reference, job):
    """Record in the job the digest of its output and the reference rows it
    got wrong."""
    try:
        rows, expected_exit = checker.parse_output(wl.report, job["text"])
    except (KeyError, ValueError, TypeError):
        rows, expected_exit = {}, 0
    job["bad"] = checker.failed_rows(reference, rows, job.get("exit_code"), expected_exit)
    job["digest"] = hashlib.sha256(job["text"].encode()).hexdigest()


def environment(first_job, tree):
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    try:
        top = subprocess.run(["git", "-C", str(tree), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == tree:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu_model or platform.processor() or None,
            "git_commit": commit, **first_job.get("env", {})}


def run(wl, reference, seed, seconds, trace, tree=ROOT):
    """Closed-loop run of one workload against ``tree``'s ``src/``; returns
    (result, env, notes)."""
    started = time.monotonic()
    stop = started + seconds
    limit = stop + JOB_MARGIN_S
    untraced, traced, single, setup = [], [], [], []
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        work = Path(tmp)
        setup_sample(tree, limit)  # warm-up: bytecode cache and page cache
        while True:
            setup.append(setup_sample(tree, limit))
            untraced.append(run_job(wl, wl.argv, seed, work, False, limit, tree))
            if trace:
                traced.append(run_job(wl, wl.argv, seed, work, True, limit, tree))
                if wl.single_argv:
                    single.append(run_job(wl, wl.single_argv, seed, work, True, limit, tree))
            if time.monotonic() >= stop:
                break
        while len(setup) < SETUP_SAMPLES_MIN:
            setup.append(setup_sample(tree, limit))

    jobs = untraced + traced + single
    for j in jobs:
        check_job(wl, reference, j)
    digests = {j["digest"] for j in jobs}
    n_rows = len(reference["rows"])
    # Same seed, same bytes: if jobs disagree, every row of every job fails.
    failed = n_rows * len(jobs) if len(digests) > 1 else sum(len(j["bad"]) for j in jobs)
    measured = [j for j in untraced if "wall_s" in j]
    if not measured:
        raise Refused("no job produced measurements")
    notes = []
    if len(digests) > 1:
        notes.append("outputs of the same seed differ between jobs")
    for j in jobs:
        if j["bad"]:
            notes.append(f"rows outside the reference: {j['bad'][:5]}")

    if not trace:
        values = {
            "wall_s": statistics.median([j["wall_s"] for j in measured]),
            "setup_s": statistics.median(setup),
            "cpu_s": statistics.median([j["cpu_s"] for j in measured]),
            "peak_rss_mb": statistics.median([j["peak_rss_mb"] for j in measured]),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        notes.append(f"{len(measured)} jobs, {len(setup)} setup samples; walls "
                     + ", ".join(f"{j['wall_s']:.3f}" for j in measured))
    else:
        traced = [j for j in traced if "layers" in j]
        single = [j for j in single if "layers" in j]
        if not traced or (wl.single_argv and not single):
            raise Refused("no traced job produced measurements")
        metrics = layer_metrics(traced, single, measured)
        if single:
            notes.append("from the --threads 1 pass over the same cells: "
                         + ", ".join(IN_POOL_METRICS))
    result = {"correct": failed == 0, "attempted": n_rows * len(jobs), "failed": failed,
              "metrics": metrics}
    return result, environment(measured[0], tree), notes


def layer_metrics(traced, single, untraced):
    """Per-layer metrics: medians over traced jobs; counts must repeat."""
    out = {}
    for name, (_, unit) in traced[0]["layers"].items():
        source = single if single and name in IN_POOL_METRICS else traced
        values = [j["layers"][name][0] for j in source]
        if any(v is None for v in values):
            value = None
        elif unit == "count":
            value = values[0]
            if len(set(values)) > 1:
                print(f"warning: count {name} differs between jobs: {values}", file=sys.stderr)
        else:
            value = statistics.median(values)
        out[name] = {"value": value, "unit": unit}
    ratio = (statistics.median([j["wall_s"] for j in traced])
             / statistics.median([j["wall_s"] for j in untraced]))
    out["trace.overhead_frac"] = {"value": ratio - 1.0, "unit": "ratio"}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tree", type=Path, default=ROOT,
                        help="checkout whose src/ is measured (default: this one)")
    args = parser.parse_args(argv)
    if not 0 <= args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be within 0..{MAX_SECONDS:g}")
    tree = args.tree.resolve()
    if not (tree / "src" / "beamsteer" / "__init__.py").is_file():
        print(f"refusing to run: no beamsteer package under {tree / 'src'}", file=sys.stderr)
        return REFUSED
    try:
        result, env, notes = run(WORKLOADS[args.workload],
                                 checker.load_reference(args.workload), args.seed,
                                 args.seconds, bool(args.trace), tree)
    except Refused as exc:
        print(f"refusing to run: {exc}", file=sys.stderr)
        return REFUSED
    print("env " + json.dumps(env, sort_keys=True))
    for note in notes:
        print(note)
    for name, m in result["metrics"].items():
        print(f"{name:34} {m['value']!s:>22} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
