"""Serving-throughput benchmark: sharded clusters under open-loop traffic.

Drives one fixed Poisson request trace (a mix of Table II workloads) through
``ShardedServiceCluster`` instances of increasing shard count and records
throughput, p50/p95/p99 sojourn latency, the queueing-delay decomposition
and per-shard utilisation.  A second section compares all seven systems of
Fig. 18 (CPU / GPU / GSamp / FPGA / AutoPre / StatPre / DynPre) on the same
trace at a fixed shard count, which is the served-traffic extension of the
paper's end-to-end figures.

The document's one gate, >= 2x throughput for 4 shards over 1 shard on the
same trace, is evaluated by the exit code, the pytest-benchmark entry and
``check_perf_regression.py``, so CI fails if cluster scaling regresses.

A full run writes ``BENCH_serving_throughput.json`` at the repo root;
``--quick`` trims the trace, skips the 8-shard point and writes under
``benchmarks/results/``.  Runs standalone or through pytest-benchmark like
the figure benchmarks.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
_SRC = REPO_ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.analysis.report import format_distribution
from repro.serving import (
    BatchScheduler,
    BurstyArrivals,
    OpenLoopArrivals,
    POLICY_LEAST_LOADED,
    RequestTrace,
    ShardedServiceCluster,
    merge_traces,
)
from repro.system.service import build_services
from repro.system.workload import WorkloadProfile

from common import gate_failures, run_once, write_result

#: Output path of the machine-readable results (repo root, tracked by PRs).
RESULT_PATH = REPO_ROOT / "BENCH_serving_throughput.json"

#: Committed capture replayed every run for cross-PR A/B comparisons: the
#: trace bytes are fixed in git, so the ``replay`` section of the results
#: compares system-to-system across PRs on *identical* traffic.  Regenerate
#: (a deliberate comparability break) with ``--regen-trace``.
REPLAY_TRACE_PATH = REPO_ROOT / "benchmarks" / "traces" / "serving_replay.jsonl"

#: Workload mix of the trace (small / medium / the paper's tuning dataset).
TRACE_DATASETS = ("PH", "AX", "MV")

#: Offered load of the open-loop trace (requests/second).  High enough to
#: saturate every shard count measured, so throughput reflects capacity.
OFFERED_RATE_RPS = 500.0

#: Scheduler settings: coalesce up to 4 compatible requests, waiting at most
#: 5 ms for companions.
MAX_BATCH_SIZE = 4
MAX_WAIT_SECONDS = 0.005

#: The acceptance gate: 4 shards must deliver at least this multiple of the
#: 1-shard throughput on the same trace.
MIN_SPEEDUP_4_VS_1 = 2.0

#: Shard counts of the scaling sweep (8 is skipped in quick mode).
SHARD_COUNTS = (1, 2, 4, 8)

SEED = 1


def _trace(num_requests: int):
    mix = [WorkloadProfile.from_dataset(key) for key in TRACE_DATASETS]
    return OpenLoopArrivals(mix, rate_rps=OFFERED_RATE_RPS, seed=SEED).trace(num_requests)


def _generate_replay_trace() -> RequestTrace:
    """The canonical replay capture: 400 bursty requests from three tenants."""
    mix = [WorkloadProfile.from_dataset(key) for key in TRACE_DATASETS]
    tenants = (("free", 0.5, 0.0), ("pro", 0.25, 0.2), ("ent", 0.25, 0.35))
    streams = [
        BurstyArrivals(
            mix,
            base_rate_rps=0.4 * share * OFFERED_RATE_RPS,
            peak_rate_rps=2.8 * share * OFFERED_RATE_RPS,
            period_seconds=0.5,
            burst_fraction=0.25,
            phase_seconds=phase,
            tenant=tenant,
            seed=SEED + i,
        )
        for i, (tenant, share, phase) in enumerate(tenants)
    ]
    budgets = (200, 100, 100)
    return merge_traces(
        [stream.trace(budget) for stream, budget in zip(streams, budgets)]
    )


def _replay_section(services, scheduler) -> Dict:
    """Serve the committed replay capture on DynPre x1/x4 (cross-PR A/B)."""
    trace = RequestTrace.from_jsonl(REPLAY_TRACE_PATH)
    entries = []
    for num_shards in (1, 4):
        cluster = ShardedServiceCluster(
            services["DynPre"],
            num_shards=num_shards,
            scheduler=scheduler,
            policy=POLICY_LEAST_LOADED,
        )
        report = cluster.serve_trace(trace)
        entries.append(_cluster_entry(report))
        print(
            f"replay DynPre x{num_shards}: {report.throughput_rps:8.1f} rps | "
            f"p99 {report.latency.p99 * 1e3:9.1f} ms"
        )
    return {
        "trace_file": str(REPLAY_TRACE_PATH.relative_to(REPO_ROOT)),
        "num_requests": len(trace),
        "offered_rate_rps": round(trace.offered_rate_rps, 3),
        "tenants": trace.tenants(),
        "results": entries,
    }


def _cluster_entry(report) -> Dict:
    latency = report.latency
    return {
        "system": report.system,
        "policy": report.policy,
        "num_shards": report.num_shards,
        "num_requests": report.num_requests,
        "num_batches": report.num_batches,
        "throughput_rps": round(report.throughput_rps, 3),
        "makespan_seconds": round(report.makespan_seconds, 6),
        "latency_seconds": {
            "p50": round(latency.p50, 6),
            "p95": round(latency.p95, 6),
            "p99": round(latency.p99, 6),
            "mean": round(latency.mean, 6),
        },
        "queueing_decomposition_seconds": {
            key: round(value, 6)
            for key, value in report.queueing_decomposition.items()
        },
        "shard_utilization": [round(u, 4) for u in report.shard_utilization],
    }


def run(quick: bool = False) -> Dict:
    """Execute the benchmark and return (and persist) the result document."""
    started = time.perf_counter()
    num_requests = 120 if quick else 240
    trace = _trace(num_requests)
    scheduler = BatchScheduler(
        max_batch_size=MAX_BATCH_SIZE, max_wait_seconds=MAX_WAIT_SECONDS
    )
    services = build_services()

    # ------------------------------------------------- shard-count scaling
    scaling: List[Dict] = []
    throughput_by_shards: Dict[int, float] = {}
    stats_by_label = {}
    for num_shards in SHARD_COUNTS:
        if quick and num_shards > 4:
            continue
        cluster = ShardedServiceCluster(
            services["DynPre"],
            num_shards=num_shards,
            scheduler=scheduler,
            policy=POLICY_LEAST_LOADED,
        )
        report = cluster.serve_trace(trace)
        throughput_by_shards[num_shards] = report.throughput_rps
        scaling.append(_cluster_entry(report))
        stats_by_label[f"DynPre x{num_shards}"] = report.latency
        print(
            f"DynPre x{num_shards}: {report.throughput_rps:8.1f} rps | "
            f"p50 {report.latency.p50 * 1e3:8.1f} ms | "
            f"p99 {report.latency.p99 * 1e3:8.1f} ms | "
            f"util {min(report.shard_utilization):.2f}-{max(report.shard_utilization):.2f}"
        )
    speedup_4_vs_1 = throughput_by_shards[4] / max(throughput_by_shards[1], 1e-12)
    print(f"\n4-shard vs 1-shard throughput: {speedup_4_vs_1:.2f}x "
          f"(gate >= {MIN_SPEEDUP_4_VS_1:.1f}x)")

    # --------------------------------------------- all seven systems, 4 shards
    systems: List[Dict] = []
    for name, service in services.items():
        cluster = ShardedServiceCluster(
            service, num_shards=4, scheduler=scheduler, policy=POLICY_LEAST_LOADED
        )
        report = cluster.serve_trace(trace)
        systems.append(_cluster_entry(report))
        print(
            f"{name:>8} x4: {report.throughput_rps:8.1f} rps | "
            f"p99 {report.latency.p99 * 1e3:9.1f} ms"
        )

    # -------------------------------- committed-trace replay (cross-PR A/B)
    replay = _replay_section(services, scheduler)

    print("\n" + format_distribution("DynPre sojourn latency by shard count (s)",
                                     stats_by_label))

    document = {
        "benchmark": "serving_throughput",
        "_provenance": (
            "simulated metrics from ShardedServiceCluster.serve_trace (engine-"
            "independent); wall_clock_seconds is this script's total runtime on "
            "the committing machine. Regenerate with "
            "`python benchmarks/bench_serving_throughput.py`."
        ),
        "quick": bool(quick),
        "trace": {
            "datasets": list(TRACE_DATASETS),
            "num_requests": num_requests,
            "offered_rate_rps": OFFERED_RATE_RPS,
            "process": "poisson",
            "seed": SEED,
        },
        "scheduler": {
            "max_batch_size": MAX_BATCH_SIZE,
            "max_wait_seconds": MAX_WAIT_SECONDS,
        },
        "scaling": scaling,
        "speedup_4_vs_1": round(speedup_4_vs_1, 3),
        "systems_4_shards": systems,
        "replay": replay,
        "wall_clock_seconds": round(time.perf_counter() - started, 4),
    }
    document["gates"] = [
        {"name": "speedup_4_vs_1", "value": document["speedup_4_vs_1"],
         "floor": MIN_SPEEDUP_4_VS_1},
    ]
    write_result(document, RESULT_PATH)
    return document


def test_serving_throughput(benchmark):
    """Pytest-benchmark entry point with the scaling acceptance gate."""
    document = run_once(benchmark, lambda: run(quick=True))
    assert not gate_failures(document["gates"])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="shorter trace, skip the 8-shard point, write under benchmarks/results/ "
             "(CI mode)",
    )
    parser.add_argument(
        "--regen-trace", action="store_true",
        help="rewrite the committed replay capture (breaks cross-PR "
             "comparability of the replay section on purpose)",
    )
    args = parser.parse_args(argv)
    if args.regen_trace:
        REPLAY_TRACE_PATH.parent.mkdir(parents=True, exist_ok=True)
        path = _generate_replay_trace().to_jsonl(REPLAY_TRACE_PATH)
        print(f"wrote {path}")
        return 0
    document = run(quick=args.quick)
    return 1 if gate_failures(document["gates"]) else 0


if __name__ == "__main__":
    sys.exit(main())
