"""Span tracing for the traced benchmark run.

The tracer swaps the library's public entry points for timing wrappers at
the names the library looks them up under (``irtlab.simlab.irt_pvalue`` is
the name ``run_rejection_study`` calls, ``irtlab.irt.batch_diff_in_means``
the name the Monte Carlo loop calls, and so on), and puts the originals back
when it is uninstalled. Nothing in the library changes.

Each span records its name, start, end, parent span and operation id.
Spans stay in memory until the run ends. A span's self time is its duration
minus the durations of its direct children; calls made on one thread nest,
so the self times of all spans in an operation add up to the duration of
its root span.
"""

from __future__ import annotations

import functools
import statistics
import time

import irtlab.designs as designs
import irtlab.irt as irt
import irtlab.network as network
import irtlab.simlab as simlab

# Imputer class -> the method name `simlab.default_methods` gives it.
IMPUTER_METHODS = {
    type(make()): name for name, make in simlab.default_methods().items()
}

ROOT_SPAN = "bench"  # one operation of the closed loop, as the benchmark runs it
SETUP_SPAN = "setup"
SETUP_OP = -1

# Span name, name of its per-call median metric, and that metric's unit.
LAYERS = (
    ("network.build", "network.build_s", "s"),
    ("network.exposure_batch", "network.exposure_batch_ms", "ms"),
    ("network.exposure_call", "network.exposure_call_us", "us"),
    ("designs.sample_batch", "designs.sample_batch_ms", "ms"),
    ("designs.enumerate", "designs.enumerate_s", "s"),
    *(
        (f"imputation.{step}.{m}", f"imputation.{step}_ms.{m}", "ms")
        for step in ("fit", "draw_batch")
        for m in IMPUTER_METHODS.values()
    ),
    ("teststat.batch", "teststat.batch_ms", "ms"),
    ("teststat.scalar", "teststat.scalar_us", "us"),
    ("irt", "irt.pvalue_ms", "ms"),
    ("irt.exact", "irt.exact_ms", "ms"),
    ("simlab", "simlab.study_ms", "ms"),
    ("simlab.dataset", "simlab.dataset_ms", "ms"),
    (ROOT_SPAN, "bench.op_ms", "ms"),
)

SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}

_ABSENT = object()


def _targets():
    """(owner, attribute, span name) for every traced entry point."""
    out = [
        (simlab, "irt_pvalue", "irt"),
        (irt, "irt_pvalue", "irt"),
        (irt, "exact_frt_pvalue_fraction", "irt.exact"),
        (irt, "batch_diff_in_means", "teststat.batch"),
        (irt, "diff_in_means", "teststat.scalar"),
        (network.ThreeLevelExposure, "batch", "network.exposure_batch"),
        (network.ThreeLevelExposure, "__call__", "network.exposure_call"),
        (simlab, "run_rejection_study", "simlab"),
        (simlab.ClusteredScenario, "sample_dataset", "simlab.dataset"),
        (simlab.SpatialScenario, "sample_dataset", "simlab.dataset"),
    ]
    for owner in (network, simlab):
        out += [
            (owner, "spatial_network", "network.build"),
            (owner, "cluster_network", "network.build"),
        ]
    for cls in (
        designs.BernoulliDesign,
        designs.CompleteDesign,
        designs.TwoStageDesign,
    ):
        out += [
            (cls, "sample_batch", "designs.sample_batch"),
            (cls, "enumerate_support", "designs.enumerate"),
        ]
    for cls, method in IMPUTER_METHODS.items():
        out += [
            (cls, "fit", f"imputation.fit.{method}"),
            (cls, "draw_batch", f"imputation.draw_batch.{method}"),
        ]
    return out


class Tracer:
    """In-memory span recorder with swappable library wrappers."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.ops = []
        self._stack = []
        self._op = SETUP_OP
        self._patches = []
        for owner, attr, name in _targets():
            saved = vars(owner).get(attr, _ABSENT)
            wrapper = self._wrap(getattr(owner, attr), name)
            self._patches.append((owner, attr, saved, wrapper))

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def _open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self._op)
        self.ends.append(None)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, saved, _ in self._patches:
            if saved is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    def run(self, op_id, fn, *args):
        """Call ``fn(*args)`` with the wrappers installed, under a root span."""
        self._op = op_id
        self.install()
        idx = self._open(SETUP_SPAN if op_id == SETUP_OP else ROOT_SPAN)
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self.uninstall()

    def self_times(self):
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        own = list(dur)
        for j, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= dur[j]
        return dur, own

    def summary(self, op_walls):
        """Per-layer metrics over the traced operations.

        ``op_walls`` maps each traced operation id to its wall time as the
        benchmark loop measured it, outside the root span.
        """
        dur, own = self.self_times()
        n_ops = len(op_walls)
        per_call = {}
        calls, total, self_total = {}, {}, {}
        for name, op, d, s in zip(self.names, self.ops, dur, own):
            per_call.setdefault(name, []).append(d)
            if op == SETUP_OP:
                continue
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + d
            self_total[name] = self_total.get(name, 0.0) + s
        out = {}
        for span, median_name, unit in LAYERS:
            samples = per_call.get(span)
            median = statistics.median(samples) if samples else 0.0
            out[median_name] = (median * SCALE[unit], unit)
            out[f"{span}.calls"] = (calls.get(span, 0) / n_ops, "1/op")
            out[f"{span}.total_ms"] = (total.get(span, 0.0) / n_ops * 1e3, "ms")
            out[f"{span}.self_ms"] = (
                self_total.get(span, 0.0) / n_ops * 1e3,
                "ms",
            )
        out["trace.self_coverage"] = (
            sum(self_total.values()) / sum(op_walls.values()),
            "ratio",
        )
        return out

    def write(self, path):
        """One CSV line per span: op,name,start_s,end_s,parent."""
        with open(path, "w") as fh:
            fh.write("op,name,start_s,end_s,parent\n")
            for row in zip(
                self.ops, self.names, self.starts, self.ends, self.parents
            ):
                fh.write("%d,%s,%.9f,%.9f,%d\n" % row)
