"""Run one beamsteer CLI job in this interpreter and write its measurements.

Usage: python3 perfbench/job.py SRC RESULT.json TRACE -- <beamsteer CLI args>

RESULT.json receives the CLI exit code, wall and CPU time of the CLI call
(the interpreter and imports are already up), peak RSS, where ``beamsteer``
was imported from, the numpy/BLAS build, and with TRACE=1 the per-layer
metrics of ``tracer.py``.  Exits 3 without running the CLI when ``beamsteer``
resolves outside SRC, the ``src/`` of the checkout under test (a stale
install would otherwise be measured silently).
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
PACKAGE_OUTSIDE_TREE = 3


def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def _blas():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return None


def main(argv):
    src, result_path, trace, cli_args = Path(argv[0]), argv[1], argv[2] == "1", argv[4:]
    import beamsteer
    import beamsteer.cli
    import numpy

    package_file = Path(beamsteer.__file__).resolve()
    if src.resolve() not in package_file.parents:
        print(f"refusing to measure: beamsteer imported from {package_file}, "
              f"outside {src}", file=sys.stderr)
        return PACKAGE_OUTSIDE_TREE

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(beamsteer)

    cpu0, t0 = _cpu_s(), time.perf_counter()
    try:
        code = beamsteer.cli.main(cli_args)
    except Exception:
        traceback.print_exc()
        code = 1
    sys.stdout.flush()
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0

    result = {
        "exit_code": code,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": _peak_rss_mb(),
        "env": {
            "beamsteer_file": str(package_file),
            "numpy": numpy.__version__,
            "blas": _blas(),
            "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        },
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
