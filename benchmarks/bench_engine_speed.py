"""Serving-engine speed benchmark: fast engine vs reference, same trace.

Replays one fixed open-loop Poisson trace (the Table II PH/AX/MV mix) through
two DynPre clusters that differ only in ``engine=`` — the pure-Python
reference event loop vs the indexed/caching fast engine — and records the
wall-clock of each ``serve_trace`` call per trace scale.  Both reports are
asserted byte-identical before any timing is trusted: a fast engine that
drifts from the reference is a bug, not a speedup.

The fast engine can replay a trace two ways — the array-native *chunked*
loop ``serve_trace`` selects for fault-free, non-fair replays, and the
event loop every other replay runs (timed here as ``serve_online`` over
``TraceArrivals``, the per-event leg) — so each gated scale times three
runs: reference, per-event fast and chunked fast.  All three reports are
asserted byte-identical.

Acceptance gates, enforced by the exit code and the pytest-benchmark entry:
fast (chunked) >= 5x reference at 20k requests (quick mode: 5k, >= 3x), and
chunked >= its per-scale floor over the per-event fast leg.  A
fast-engine-only 100k-request point (the "interactive speed" headline; the
reference would take minutes there) is recorded without a gate, and the
full run adds a **1M-request fast-only tier**: chunked vs per-event, gated
at >= 3x with byte-identical reports (the scale the array-native loop
exists for).

Results are written to ``BENCH_engine_speed.json`` at the repo root;
``benchmarks/check_perf_regression.py`` compares fresh runs against the
committed copy (speedup floor + machine-normalized wall-clock check).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
_SRC = REPO_ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.serving import (
    BatchScheduler,
    ENGINE_FAST,
    ENGINE_REFERENCE,
    OpenLoopArrivals,
    POLICY_LEAST_LOADED,
    ShardedServiceCluster,
    TraceArrivals,
)
from repro.system.service import build_services
from repro.system.workload import WorkloadProfile

#: Output path of the machine-readable results (repo root, tracked by PRs).
RESULT_PATH = REPO_ROOT / "BENCH_engine_speed.json"

#: Workload mix of the trace (same Table II mix as the other serving benches).
TRACE_DATASETS = ("PH", "AX", "MV")

#: Offered load of the open-loop trace (requests/second).
OFFERED_RATE_RPS = 500.0

#: Scheduler settings shared by both engines.
MAX_BATCH_SIZE = 4
MAX_WAIT_SECONDS = 0.005

#: Shard count of both clusters.
NUM_SHARDS = 4

#: Gated trace scales: (num_requests, minimum fast-vs-reference speedup,
#: minimum chunked-vs-per-event speedup).
GATED_SCALES = ((5_000, 3.0, 1.1), (20_000, 5.0, 1.4))

#: Fast-engine-only showcase scale (no reference run, no gate).
SHOWCASE_SCALE = 100_000

#: Fast-only million-request tier: chunked vs per-event loop, no reference.
MILLION_SCALE = 1_000_000

#: Minimum chunked-vs-per-event speedup at the million-request tier.
MIN_MILLION_SPEEDUP = 3.0

#: Wall-clock ceiling for the chunked 1M replay (machine-independent smoke
#: budget; ~10x headroom over a laptop run).
MILLION_WALL_BUDGET_SECONDS = 60.0

SEED = 1

PROVENANCE = (
    "wall-clock seconds measured around ShardedServiceCluster.serve_trace "
    "(reference, chunked) and serve_online(TraceArrivals(trace)) (per-event "
    "fast) on this machine; simulated metrics are engine-independent (byte-identical "
    "reports, asserted before timing). Regenerate with "
    "`python benchmarks/bench_engine_speed.py`."
)


def _trace(num_requests: int):
    mix = [WorkloadProfile.from_dataset(key) for key in TRACE_DATASETS]
    trace = OpenLoopArrivals(mix, rate_rps=OFFERED_RATE_RPS, seed=SEED).trace(num_requests)
    # Materialize the lazy request objects up front so the one-time cost is
    # charged to neither timed serve (both engines then see identical input
    # state, which the regression script's machine-factor normalization
    # assumes).
    trace.requests
    return trace


def _cluster(services, engine: str) -> ShardedServiceCluster:
    return ShardedServiceCluster(
        services["DynPre"],
        num_shards=NUM_SHARDS,
        scheduler=BatchScheduler(
            max_batch_size=MAX_BATCH_SIZE, max_wait_seconds=MAX_WAIT_SECONDS
        ),
        policy=POLICY_LEAST_LOADED,
        engine=engine,
    )


def _timed_serve(services, engine: str, trace):
    cluster = _cluster(services, engine)
    started = time.perf_counter()
    report = cluster.serve_trace(trace)
    elapsed = time.perf_counter() - started
    return report, elapsed


def _timed_event(services, trace):
    """Time the fast engine's event loop on the trace (the per-event leg)."""
    cluster = _cluster(services, ENGINE_FAST)
    started = time.perf_counter()
    report = cluster.serve_online(TraceArrivals(trace))
    elapsed = time.perf_counter() - started
    return report, elapsed


def run_million(services=None) -> Dict:
    """The fast-only 1M-request tier: chunked vs per-event loop.

    Returns the result entry (also embedded in the full run's document);
    raises on report divergence.  The reference engine is deliberately
    absent — it would take minutes at this scale — so the regression
    script normalizes machine speed with the per-event fast leg instead.
    """
    if services is None:
        services = build_services()
    trace = _trace(MILLION_SCALE)
    event_report, event_seconds = _timed_event(services, trace)
    chunked_report, chunked_seconds = _timed_serve(services, ENGINE_FAST, trace)
    if json.dumps(event_report.as_dict(), sort_keys=True) != json.dumps(
        chunked_report.as_dict(), sort_keys=True
    ):
        raise AssertionError(
            f"engine divergence at {MILLION_SCALE} requests: chunked report is "
            "not byte-identical to the per-event fast report"
        )
    speedup = event_seconds / max(chunked_seconds, 1e-12)
    entry = {
        "scale": MILLION_SCALE,
        "event_seconds": round(event_seconds, 4),
        "chunked_seconds": round(chunked_seconds, 4),
        "chunked_speedup": round(speedup, 2),
        "min_chunked_speedup": MIN_MILLION_SPEEDUP,
        "wall_budget_seconds": MILLION_WALL_BUDGET_SECONDS,
        "identical_reports": True,
    }
    verdict = "ok" if speedup >= MIN_MILLION_SPEEDUP else "REGRESSION"
    print(
        f"{MILLION_SCALE:>7} requests: per-event {event_seconds:7.2f}s | "
        f"chunked {chunked_seconds:7.3f}s | {speedup:6.1f}x "
        f"(gate >= {MIN_MILLION_SPEEDUP:.0f}x) | {verdict}"
    )
    return entry


def run(quick: bool = False) -> Dict:
    """Execute the benchmark and return (and persist) the result document."""
    services = build_services()
    results: List[Dict] = []
    failures: List[str] = []

    scales = GATED_SCALES[:1] if quick else GATED_SCALES
    for num_requests, min_speedup, min_chunked in scales:
        trace = _trace(num_requests)
        reference_report, reference_seconds = _timed_serve(
            services, ENGINE_REFERENCE, trace
        )
        event_report, event_seconds = _timed_event(services, trace)
        fast_report, fast_seconds = _timed_serve(services, ENGINE_FAST, trace)
        reference_rendered = json.dumps(reference_report.as_dict(), sort_keys=True)
        fast_rendered = json.dumps(fast_report.as_dict(), sort_keys=True)
        event_rendered = json.dumps(event_report.as_dict(), sort_keys=True)
        if reference_rendered != fast_rendered or reference_rendered != event_rendered:
            raise AssertionError(
                f"engine divergence at {num_requests} requests: fast reports are "
                "not byte-identical to the reference report"
            )
        speedup = reference_seconds / max(fast_seconds, 1e-12)
        chunked_speedup = event_seconds / max(fast_seconds, 1e-12)
        results.append(
            {
                "scale": num_requests,
                "reference_seconds": round(reference_seconds, 4),
                "fast_seconds": round(fast_seconds, 4),
                "event_seconds": round(event_seconds, 4),
                "speedup": round(speedup, 2),
                "min_speedup": min_speedup,
                "chunked_speedup": round(chunked_speedup, 2),
                "min_chunked_speedup": min_chunked,
                "identical_reports": True,
            }
        )
        verdict = "ok" if (speedup >= min_speedup and chunked_speedup >= min_chunked) \
            else "REGRESSION"
        print(
            f"{num_requests:>7} requests: reference {reference_seconds:7.2f}s | "
            f"per-event {event_seconds:7.3f}s | chunked {fast_seconds:7.3f}s | "
            f"{speedup:6.1f}x (gate >= {min_speedup:.0f}x) | "
            f"chunked {chunked_speedup:5.2f}x (gate >= {min_chunked:.2f}x) | {verdict}"
        )
        if speedup < min_speedup:
            failures.append(
                f"{num_requests} requests: {speedup:.1f}x below the {min_speedup:.0f}x gate"
            )
        if chunked_speedup < min_chunked:
            failures.append(
                f"{num_requests} requests: chunked loop {chunked_speedup:.2f}x below "
                f"the {min_chunked:.2f}x gate over the per-event loop"
            )

    showcase: Optional[Dict] = None
    if not quick:
        trace = _trace(SHOWCASE_SCALE)
        report, fast_seconds = _timed_serve(services, ENGINE_FAST, trace)
        showcase = {
            "scale": SHOWCASE_SCALE,
            "fast_seconds": round(fast_seconds, 4),
            "throughput_rps": round(report.throughput_rps, 3),
            "p99_seconds": round(report.latency.p99, 6),
        }
        print(
            f"{SHOWCASE_SCALE:>7} requests: fast-only {fast_seconds:7.2f}s "
            f"(reference skipped) | {report.throughput_rps:8.1f} simulated rps"
        )

    million: Optional[Dict] = None
    if not quick:
        million = run_million(services)
        if million["chunked_speedup"] < million["min_chunked_speedup"]:
            failures.append(
                f"{MILLION_SCALE} requests: chunked loop "
                f"{million['chunked_speedup']:.2f}x below the "
                f"{million['min_chunked_speedup']:.0f}x gate over the per-event loop"
            )
        if million["chunked_seconds"] > million["wall_budget_seconds"]:
            failures.append(
                f"{MILLION_SCALE} requests: chunked wall-clock "
                f"{million['chunked_seconds']:.1f}s over the "
                f"{million['wall_budget_seconds']:.0f}s budget"
            )

    document = {
        "benchmark": "engine_speed",
        "_provenance": PROVENANCE,
        "quick": bool(quick),
        "trace": {
            "datasets": list(TRACE_DATASETS),
            "offered_rate_rps": OFFERED_RATE_RPS,
            "process": "poisson",
            "seed": SEED,
        },
        "cluster": {
            "system": "DynPre",
            "num_shards": NUM_SHARDS,
            "policy": POLICY_LEAST_LOADED,
            "max_batch_size": MAX_BATCH_SIZE,
            "max_wait_seconds": MAX_WAIT_SECONDS,
        },
        "results": results,
        "showcase_100k": showcase,
        "million": million,
        "wall_clock_seconds": round(
            sum(
                entry["reference_seconds"] + entry["fast_seconds"]
                + entry["event_seconds"]
                for entry in results
            )
            + (showcase["fast_seconds"] if showcase else 0.0)
            + (
                million["event_seconds"] + million["chunked_seconds"]
                if million
                else 0.0
            ),
            4,
        ),
    }
    if failures:
        document["failures"] = failures
    RESULT_PATH.write_text(json.dumps(document, indent=2) + "\n")
    print(f"\nresults written to {RESULT_PATH}")
    return document


def test_engine_speed(benchmark):
    """Pytest-benchmark entry point with the speedup acceptance gate."""
    from common import run_once

    document = run_once(benchmark, lambda: run(quick=True))
    for entry in document["results"]:
        assert entry["speedup"] >= entry["min_speedup"]
        assert entry["chunked_speedup"] >= entry["min_chunked_speedup"]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="5k-request gate only, skip 20k, the 100k showcase and the 1M tier "
             "(CI mode)",
    )
    parser.add_argument(
        "--million", action="store_true",
        help="run only the fast-only 1M-request tier (chunked vs per-event)",
    )
    args = parser.parse_args(argv)
    if args.million:
        entry = run_million()
        ok = (
            entry["chunked_speedup"] >= entry["min_chunked_speedup"]
            and entry["chunked_seconds"] <= entry["wall_budget_seconds"]
        )
        return 0 if ok else 1
    document = run(quick=args.quick)
    if document.get("failures"):
        for failure in document["failures"]:
            print(f"ENGINE SPEED REGRESSION: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
