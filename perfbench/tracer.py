"""Outside-in span tracer for one beamsteer CLI job.

Wraps public call sites of the package's modules from outside: nothing in
``src/`` changes.  Each wrapped call records a span ``[name, parent, start,
end, ok]`` in memory, where ``parent`` is the index of the enclosing span (-1
at top level) and ``ok`` is False when the call raised.  A layer's self time
is its span duration minus the spans directly inside it.

Calls made inside pool worker processes are not seen: the workers inherit
the wrappers through fork, but their spans stay in the worker's memory.
"""

from __future__ import annotations

import time

# (owner path, attribute, span name).  The owner path is resolved from the
# imported package; "semetrics.np.linalg" is the numpy namespace as semetrics
# sees it, so only semetrics' own solves are timed.
TARGETS = (
    ("semetrics", "child_rng", "channel.draw.rng"),
    ("semetrics", "sample_path_params", "channel.draw.params"),
    ("semetrics.np.linalg", "solve", "semetrics.zf_solve"),
    ("semetrics", "hbs_beamformer_set", "beamforming.fallback"),
    # The rest of a fallback trial (semetrics calls these only from the
    # scalar path), so that its time stays out of the kernel's self time.
    ("semetrics", "draw_realization", "beamforming.fallback.scalar"),
    ("semetrics", "assemble_matrix", "beamforming.fallback.scalar"),
    ("semetrics", "per_stream_sinr", "beamforming.fallback.scalar"),
    ("semetrics", "ProcessPoolExecutor", "semetrics.pool"),
    ("experiment", "run_monte_carlo", "semetrics.run_monte_carlo"),
    ("experiment", "abs_saturation_bound", "bounds"),
    ("experiment", "hbs_se_approx", "bounds"),
    ("experiment", "rows_to_csv", "experiment.csv"),
    ("cli", "rows_to_csv", "experiment.csv"),
    ("cli", "write_csv", "experiment.csv"),
)

# metric -> (unit, statistic, span names).  A metric whose spans were all
# absent (their wrap target no longer exists) is reported as None.
METRICS = {
    "channel.draw.calls": ("count", "calls", ("channel.draw.rng",)),
    "channel.draw.s": ("s", "total", ("channel.draw.rng", "channel.draw.params")),
    "semetrics.run_monte_carlo.calls": ("count", "calls", ("semetrics.run_monte_carlo",)),
    "semetrics.run_monte_carlo.s": ("s", "total", ("semetrics.run_monte_carlo",)),
    "semetrics.kernel.self_s": ("s", "self", ("semetrics.run_monte_carlo",)),
    "semetrics.zf_solve.calls": ("count", "calls", ("semetrics.zf_solve",)),
    "semetrics.zf_solve.s": ("s", "total", ("semetrics.zf_solve",)),
    # Each trial sent to the fallback ends in exactly one hbs_beamformer_set
    # call that returns; its resampled attempts raise.
    "beamforming.fallback.calls": ("count", "ok_calls", ("beamforming.fallback",)),
    "beamforming.fallback.s": ("s", "total", ("beamforming.fallback",
                                              "beamforming.fallback.scalar")),
    "semetrics.resampled": ("count", "resampled", ("semetrics.run_monte_carlo",)),
    "semetrics.pool.starts": ("count", "calls", ("semetrics.pool",)),
    "bounds.calls": ("count", "calls", ("bounds",)),
    "bounds.s": ("s", "total", ("bounds",)),
    # CSV spans nest (write_csv calls rows_to_csv), so their summed self
    # time is the time spent in CSV output.
    "experiment.csv.s": ("s", "self", ("experiment.csv",)),
}


class _Namespace:
    """Stand-in for a module: overrides set on it, everything else forwarded."""

    def __init__(self, target):
        self._target = target

    def __getattr__(self, attr):
        return getattr(self._target, attr)


class Tracer:
    def __init__(self):
        self.spans = []
        self.present = set()
        self.resampled = 0
        self._stack = []

    def wrap(self, owner, attr, name, on_result=None):
        """Replace ``owner.attr`` with a span-recording wrapper, if it exists."""
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                span[4] = True
            finally:
                span[3] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, wrapper)
        self.present.add(name)

    def install(self, package):
        """Wrap every target in TARGETS on the imported ``beamsteer`` package."""
        semetrics = getattr(package, "semetrics", None)
        if hasattr(semetrics, "np"):
            np_view = _Namespace(semetrics.np)
            np_view.linalg = _Namespace(semetrics.np.linalg)
            semetrics.np = np_view
        for owner_path, attr, name in TARGETS:
            owner = package
            for part in owner_path.split("."):
                owner = getattr(owner, part, None)
            on_result = self._count_resampled if attr == "run_monte_carlo" else None
            if owner is not None:
                self.wrap(owner, attr, name, on_result)

    def _count_resampled(self, estimate):
        self.resampled += int(getattr(estimate, "n_resampled", 0))

    def metrics(self):
        """Per-layer metrics {name: (value or None, unit)} over all spans."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls, ok_calls, total, self_time = {}, {}, {}, {}
        for i, (name, parent, start, end, ok) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            ok_calls[name] = ok_calls.get(name, 0) + ok
            total[name] = total.get(name, 0.0) + (end - start)
            self_time[name] = self_time.get(name, 0.0) + (end - start - child_time[i])
        stats = {"calls": calls, "ok_calls": ok_calls, "total": total, "self": self_time}
        out = {}
        for metric, (unit, stat, names) in METRICS.items():
            present = [n for n in names if n in self.present]
            if not present:
                value = None
            elif stat == "resampled":
                value = self.resampled
            else:
                value = sum(stats[stat].get(n, 0) for n in present)
            out[metric] = (value, unit)
        return out
