"""The irtlab p-value benchmark.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Each run measures one workload (``all`` runs both in turn) in fresh
single-threaded processes started by this script: BLAS and OpenMP thread
counts are pinned to 1 in their environment, one client runs a closed loop,
and nothing else from the benchmark runs meanwhile. The library is imported
from ``src/`` of the checkout the script sits in; without it the run fails.

Workloads (see ``workloads.py``):

- ``spatial_study``: ``run_rejection_study`` on the spatial scenario
  (N=1000, r=0.01, Bernoulli p=0.8, tau=0, four methods, k=2000), one
  dataset and one experiment per operation, with a network built per
  dataset. About 82% of units are missing, so imputation does about half
  the work; the exposure map, sampling and the batched statistic do most of
  the rest.
- ``exact_oracle``: one ``exact_frt_pvalue_fraction`` per operation over
  the 5,670 assignments of a two-stage design on 8 clusters of 3 units;
  the only workload that enumerates, on the scalar statistic path.

Between them the two workloads reach every layer the tracer wraps. There is
no workload at large n (network build and peak memory at a million edges)
and none on the clustered scenario. On a 2-vCPU host where pure-Python code
runs at speeds up to 1.8x apart from one stretch of seconds or minutes to
the next, runs shorter than about a minute spread too widely from run to
run for the metrics' bounds, and a full set of repeated runs that long has
time for two workloads only.

With ``--trace 0`` the result's metrics are the end-to-end ones:
``pvalues_per_s``, ``op_ms_p50``, ``op_ms_tail`` (highest percentile with
ten samples beyond it; the percentile and sample count are in the record
line), ``setup_s`` (process start to first operation, median of
``SETUP_PROCESSES`` processes) and ``peak_rss_mb``. ``failed_frac``
(failed / attempted) is printed and carried by the result's ``failed`` and
``attempted``; it is not a metric, because it is 0 when nothing fails.

With ``--trace 1`` the metrics are the per-layer ones from ``tracer.py``
and the computed counts, and the spans go to ``perfbench/out/``.

The run fails, with exit code 1, when the correctness gate fails: every
Monte Carlo result must satisfy 0 <= extreme_count <= k and
p_hat = extreme_count / k, every study row must have its expected
replications and agree with its p-value, and every exact p-value must lie
in a binomial band around a large-k Monte Carlo estimate. The record line
carries a digest of the first operations' results, which runs of the same
code and seed reproduce exactly.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"

WORKLOADS = ("spatial_study", "exact_oracle")

THREAD_PINS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}

SETUP_PROCESSES = 3
DEADLINE_S = 175.0


class BenchError(Exception):
    """The run could not produce a result."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def declared_metrics():
    """Metric name -> unit, for the end-to-end and the per-layer list."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple(
        {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")
    )


def source_digest():
    """sha256 over the library's source files, names and contents."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "irtlab").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_worker(workload, seed, seconds, trace, deadline, *extra):
    """Start one worker process, wait for it and return its JSON report."""
    env = dict(os.environ, **THREAD_PINS)
    t0 = time.monotonic()
    cmd = [
        sys.executable,
        str(WORKER),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", repr(seconds),
        "--trace", str(trace),
        "--t0", repr(t0),
        *extra,
    ]
    try:
        proc = subprocess.run(
            cmd,
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - t0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: worker passed the deadline") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{workload}: worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload, seed, seconds, trace, deadline):
    """Measure one workload. Returns (result object, record)."""
    setups = []
    if not trace:
        for _ in range(SETUP_PROCESSES - 1):
            report = run_worker(workload, seed, seconds, trace, deadline, "--setup-only")
            setups.append(report["setup_s"])
    extra = []
    if trace:
        OUT.mkdir(exist_ok=True)
        extra = ["--spans-out", str(OUT / f"spans-{workload}-seed{seed}.csv")]
    report = run_worker(workload, seed, seconds, trace, deadline, *extra)
    setups.append(report["setup_s"])
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in report["metrics"].items()}
    if not trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    result = {
        "correct": not report["gate_errors"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    record = {
        k: v
        for k, v in report.items()
        if k not in ("setup_s", "attempted", "failed", "metrics")
    }
    record["computed"] = {
        k: {"value": v, "unit": u, "kind": "computed"}
        for k, (v, u) in report["computed"].items()
    }
    record["setup_s_samples"] = setups
    if "tail" in report:
        record["tail"] = report["tail"]
    return result, record


def check_names(metrics, declared):
    got = {k: m["unit"] for k, m in metrics.items()}
    if got != declared:
        missing = sorted(set(declared) - set(got))
        extra = sorted(set(got) - set(declared))
        units = sorted(k for k in set(got) & set(declared) if got[k] != declared[k])
        raise BenchError(
            f"metrics differ from BENCHMARK.json: missing {missing}, "
            f"undeclared {extra}, unit mismatch {units}"
        )


def print_workload(name, result, record):
    print(f"== {name}")
    for key, m in sorted(result["metrics"].items()):
        note = ""
        if key == "op_ms_tail":
            t = record["tail"]
            note = f"  (p{t['percentile']:.1f}, {t['samples']} samples, {t['beyond']} beyond)"
        elif key == "setup_s":
            note = f"  (median of {len(record['setup_s_samples'])} processes)"
        value = m["value"]
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"{key:<36} {shown} {m['unit']}{note}")
    print(
        f"{'failed_frac':<36} {result['failed'] / result['attempted']:>16.6g} "
        f"({result['failed']} of {result['attempted']} ops)"
    )
    for key, c in record["computed"].items():
        if key not in result["metrics"]:
            print(f"{key:<36} {c['value']:>16d} {c['unit']} (computed)")
    gate = "ok" if result["correct"] else "FAILED: " + "; ".join(record["gate_errors"][:5])
    print(f"gate: {gate}")
    print(f"digest: {record['digest']} (first {record['digest_ops']} ops)")


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "irtlab" / "__init__.py").is_file():
        print(f"no irtlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    end_to_end, per_layer = declared_metrics()
    run_record = {
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "thread_pins": THREAD_PINS,
    }
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + DEADLINE_S
            result, record = run_workload(name, args.seed, args.seconds, args.trace, deadline)
            check_names(result["metrics"], per_layer if args.trace else end_to_end)
            print_workload(name, result, record)
            print(json.dumps({"workload": name, "record": record}))
            results[name] = result
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    run_record["loadavg_end"] = os.getloadavg()
    print(json.dumps({"run": run_record}))
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{key}": m
                for name, r in results.items()
                for key, m in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
