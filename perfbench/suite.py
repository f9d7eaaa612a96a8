"""Run every workload, compare two commits, or re-capture references.

    python3 perfbench/suite.py run --runs 10 --out perfbench/results/now.jsonl
    python3 perfbench/suite.py pair ../parent --runs 10 \\
        --before perfbench/results/parent.jsonl --after perfbench/results/change.jsonl
    python3 perfbench/suite.py compare perfbench/results/parent.jsonl \\
        perfbench/results/change.jsonl
    python3 perfbench/suite.py capture

Every run lasts ``run_seconds`` from ``BENCHMARK.json``, so results of one
length are compared.  ``run`` calls ``run.py`` once per (workload, seed),
appends one JSON record per run to ``--out`` and prints every metric by name
with its unit (median and quartiles over the runs).  ``pair`` measures
another checkout (the parent commit) and this one seed by seed, alternating
which side runs first, so that the host's drift falls on both sides; it then
prints the comparison.  ``compare`` prints, per workload and metric, both
medians, their ratio (after / before), each side's quartiles and, for runs
made by ``pair``, how many pairs the after side won.  ``capture`` rewrites
``reference/<workload>.json`` from REFERENCE_SEEDS; do it only when the
program's output is meant to change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checker
import run as bench

REFERENCE_SEEDS = tuple(range(9001, 9061))


def run_seconds():
    """The run length every run uses, from BENCHMARK.json."""
    with open(bench.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)["run_seconds"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def collect(records):
    """{workload: {metric: (unit, [(seed, value)])}} over result records."""
    out = {}
    for rec in records:
        metrics = out.setdefault(rec["workload"], {})
        for name, m in rec["result"]["metrics"].items():
            if m["value"] is not None:
                metrics.setdefault(name, (m["unit"], []))[1].append((rec["seed"], m["value"]))
    return out


def run_once(name, seed, trace, out, tree=bench.ROOT):
    """One run.py run; appends its record to the open file ``out``."""
    seconds = run_seconds()
    cmd = [sys.executable, str(bench.HERE / "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--tree", str(tree)]
    proc = subprocess.run(cmd, cwd=bench.ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{name} seed {seed} on {tree}: exit {proc.returncode}\n"
                           f"{proc.stderr}")
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    rec = {"workload": name, "seed": seed, "trace": trace, "seconds": seconds,
           "env": env, "log": lines[1:-1], "result": json.loads(lines[-1])}
    out.write(json.dumps(rec) + "\n")
    out.flush()
    r = rec["result"]
    print(f"{name} seed {seed} ({tree}): correct={r['correct']} "
          f"rows_checked={r['attempted']} rows_failed={r['failed']}", flush=True)
    return rec


def _open_out(path):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    return open(path, "a", encoding="utf-8")


def cmd_run(args):
    records = []
    with _open_out(args.out) as fh:
        for name in bench.WORKLOADS:
            for seed in range(args.first_seed, args.first_seed + args.runs):
                records.append(run_once(name, seed, args.trace, fh))
    print(f"\n{'workload':14} {'metric':34} {'unit':6} {'median':>12} {'q1':>12} "
          f"{'q3':>12}  n")
    for name, metrics in collect(records).items():
        for metric, (unit, runs) in metrics.items():
            q1, med, q3 = quartiles([v for _, v in runs])
            print(f"{name:14} {metric:34} {unit:6} {med:12.6g} {q1:12.6g} {q3:12.6g}  "
                  f"{len(runs)}")
    return 0 if all(r["result"]["correct"] for r in records) else 1


def cmd_pair(args):
    before_tree = Path(args.before_tree).resolve()
    with _open_out(args.before) as before, _open_out(args.after) as after:
        for name in bench.WORKLOADS:
            for i, seed in enumerate(range(args.first_seed, args.first_seed + args.runs)):
                sides = [(before_tree, before), (bench.ROOT, after)]
                for tree, fh in sides if i % 2 == 0 else sides[::-1]:
                    run_once(name, seed, args.trace, fh, tree)
    return cmd_compare(argparse.Namespace(before=args.before, after=args.after))


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def cmd_compare(args):
    before, after = _load(args.before), _load(args.after)
    settings = {(r["seconds"], r["trace"]) for r in before + after}
    if len(settings) != 1:
        print(f"refusing to compare runs of different (seconds, trace): {sorted(settings)}",
              file=sys.stderr)
        return 1
    before, after = collect(before), collect(after)
    print(f"{'workload':14} {'metric':34} {'unit':6} {'before':>11} {'after':>11} "
          f"{'ratio':>7}  {'before q1..q3':>23}  {'after q1..q3':>23}  after won")
    for name in sorted(set(before) | set(after)):
        metrics = before.get(name, {})
        for metric in sorted(set(metrics) | set(after.get(name, {}))):
            if metric not in metrics or metric not in after.get(name, {}):
                print(f"{name:14} {metric:34} only in one file")
                continue
            unit, b = metrics[metric]
            a = after[name][metric][1]
            bq, aq = quartiles([v for _, v in b]), quartiles([v for _, v in a])
            ratio = f"{aq[1] / bq[1]:7.3f}" if bq[1] else "    n/a"
            # The two runs of a pair share a seed; every metric here is
            # better when lower.
            a, b = dict(a), dict(b)
            seeds = sorted(set(a) & set(b))
            won = f"{sum(a[s] < b[s] for s in seeds)}/{len(seeds)}"
            print(f"{name:14} {metric:34} {unit:6} {bq[1]:11.5g} {aq[1]:11.5g} {ratio}  "
                  f"{bq[0]:11.5g}..{bq[2]:<11.5g}  {aq[0]:11.5g}..{aq[2]:<11.5g}  {won}")
    return 0


def cmd_capture(args):
    for name, wl in bench.WORKLOADS.items():
        outputs = []
        with tempfile.TemporaryDirectory(dir=bench.ROOT, prefix=".perfbench-") as tmp:
            for seed in REFERENCE_SEEDS:
                job = bench.run_job(wl, wl.argv, seed, Path(tmp), False,
                                    time.monotonic() + 600)
                outputs.append((job.get("exit_code"), job["text"]))
        ref = checker.build_reference(name, wl.report, wl.argv, REFERENCE_SEEDS, outputs)
        path = checker.REFERENCE_DIR / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
        widest = max(checker.tolerance(r, len(REFERENCE_SEEDS), wl.report)
                     for r in ref["rows"].values())
        print(f"{name}: {len(ref['rows'])} rows, widest tolerance {widest:.4f}", flush=True)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run every workload and summarise")
    p.add_argument("--runs", type=int, default=10, help="runs (seeds) per workload")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True, help="results file (JSON lines, appended)")
    p = sub.add_parser("pair", help="alternate runs of another checkout and this one")
    p.add_argument("before_tree", help="checkout of the commit to compare against")
    p.add_argument("--runs", type=int, default=10, help="pairs per workload")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--before", required=True, help="results file of before_tree")
    p.add_argument("--after", required=True, help="results file of this checkout")
    p = sub.add_parser("compare", help="compare two results files")
    p.add_argument("before")
    p.add_argument("after")
    sub.add_parser("capture", help="re-capture the stored references")
    args = parser.parse_args(argv)
    commands = {"run": cmd_run, "pair": cmd_pair, "compare": cmd_compare,
                "capture": cmd_capture}
    try:
        return commands[args.command](args)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
