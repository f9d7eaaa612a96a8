"""The benchmark's tracer (perfbench/tracer.py) times the package by wrapping
named call sites.  A site that is renamed or deleted is skipped silently and
every metric that only it fed reads null; this catches that without running
the benchmark.  The tracer is read, never installed."""

import importlib.util
from pathlib import Path

import beamsteer
import beamsteer.cli  # noqa: F401  (loads experiment and cli)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_metric_has_a_live_target():
    tracer = load_tracer()
    live = set()
    for owner_path, attr, name in tracer.TARGETS:
        owner = beamsteer
        for part in owner_path.split("."):
            owner = getattr(owner, part, None)
        if getattr(owner, attr, None) is not None:
            live.add(name)
    dead = [metric for metric, (_, _, names) in tracer.METRICS.items()
            if not live.intersection(names)]
    assert dead == []
