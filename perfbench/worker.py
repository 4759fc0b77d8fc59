"""One benchmark process: set up one workload, run its closed loop, check it.

``run.py`` starts this script in a fresh process with the thread pins in
its environment and reads the JSON object it prints as its last line. It is
not meant to be run by hand.

Set-up time is measured from ``--t0``, a ``time.monotonic()`` reading the
parent takes just before it starts this process, to the moment the first
operation could begin. With ``--setup-only`` the process stops there.

The loop is closed and has one client: the next operation starts when the
previous one returns. It runs until ``--seconds`` have passed and at least
``MIN_OPS`` operations were attempted. The digest and the computed counts
cover the first ``MIN_OPS`` operations only, so they do not depend on how
many operations a run completed.

With ``--trace 1``, odd operations run with the tracer's wrappers installed
and even ones without, so the tracing overhead is measured on interleaved
operations of the same run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# A tail percentile needs at least ten samples beyond it.
TAIL_BEYOND = 10
MIN_OPS = TAIL_BEYOND + 1


def parse_args(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", type=Path)
    return parser.parse_args(argv)


def import_library():
    sys.path.insert(0, str(SRC))
    import irtlab

    if Path(irtlab.__file__).resolve().parent != SRC / "irtlab":
        raise SystemExit(f"irtlab imported from {irtlab.__file__}, not {SRC}")


def tail(latencies):
    """Highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = n - TAIL_BEYOND - 1
    return ordered[rank], 100.0 * (rank + 1) / n


def run_loop(workload, seconds, tracer):
    from irtlab.errors import IrtError

    outcomes, walls = {}, {}
    latencies = []
    pvalues = failed = 0
    start = time.perf_counter()
    i = 0
    while i < MIN_OPS or time.perf_counter() - start < seconds:
        traced = tracer is not None and i % 2 == 1
        t = time.perf_counter()
        try:
            if traced:
                outcome = tracer.run(i, workload.op, i)
            else:
                outcome = workload.op(i)
        except IrtError:
            failed += 1
            latencies.append(math.inf)
        else:
            elapsed = time.perf_counter() - t
            latencies.append(elapsed)
            outcomes[i] = outcome
            pvalues += outcome.pvalues
            walls.setdefault(traced, {})[i] = elapsed
        i += 1
    return {
        "elapsed": time.perf_counter() - start,
        "attempted": i,
        "failed": failed,
        "pvalues": pvalues,
        "outcomes": outcomes,
        "latencies": latencies,
        "walls": walls,
    }


def main(argv=None):
    args = parse_args(argv)
    import_library()
    import numpy as np
    import scipy

    import tracer as tracing
    import workloads

    capture = workloads.IrtCapture()
    capture.install()
    make = workloads.WORKLOADS[args.workload]
    if args.trace:
        spans = tracing.Tracer()
        workload = spans.run(tracing.SETUP_OP, make, args.seed, capture)
    else:
        spans = None
        workload = make(args.seed, capture)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    loop = run_loop(workload, args.seconds, spans)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Everything below is outside the timed region.
    outcomes = loop["outcomes"]
    errors = [
        f"op {i}: {e}"
        for i, outcome in sorted(outcomes.items())
        for e in workload.check(i, outcome)
    ]
    window = [outcomes[i] for i in range(MIN_OPS) if i in outcomes]
    digest = hashlib.sha256(
        json.dumps([o.digest_item() for o in window], sort_keys=True).encode()
    ).hexdigest()
    computed = workloads.computed_counts(workload, window)
    report = {
        "setup_s": setup_s,
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "pvalues": loop["pvalues"],
        "elapsed_s": loop["elapsed"],
        "peak_rss_mb": peak_rss_mb,
        "gate_errors": errors,
        "digest": digest,
        "digest_ops": len(window),
        "computed": computed,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "threads_seen": {
            k: os.environ.get(k) for k in sorted(os.environ) if k.endswith("_THREADS")
        },
    }
    latencies = loop["latencies"]
    if spans is None:
        tail_s, tail_pct = tail(latencies)
        report["metrics"] = {
            "pvalues_per_s": (loop["pvalues"] / loop["elapsed"], "1/s"),
            "op_ms_p50": (statistics.median(latencies) * 1e3, "ms"),
            "op_ms_tail": (tail_s * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        report["tail"] = {
            "percentile": tail_pct,
            "samples": len(latencies),
            "beyond": TAIL_BEYOND,
        }
    else:
        walls = loop["walls"]
        traced, untraced = walls.get(True, {}), walls.get(False, {})
        metrics = spans.summary(traced)
        metrics["trace.overhead_frac"] = (
            _rate(outcomes, untraced) / _rate(outcomes, traced) - 1.0,
            "ratio",
        )
        metrics.update(computed)
        report["metrics"] = metrics
        if args.spans_out:
            spans.write(args.spans_out)
    print(json.dumps(report))
    return 0


def _rate(outcomes, walls):
    """p-values per second over the operations in ``walls``."""
    return sum(outcomes[i].pvalues for i in walls) / sum(walls.values())


if __name__ == "__main__":
    sys.exit(main())
