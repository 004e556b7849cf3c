"""Fault-tolerance benchmark: goodput under crash-and-recover outages,
with the fault-tolerance subsystem on vs off.

A 4-shard DynPre cluster serves open-loop traffic at ~2x its *measured*
saturated throughput while two of the four shards crash mid-run and come
back later (staggered outages, so capacity dips to 2/4 and 3/4 shards).
Both runs see the exact same arrivals and the exact same fault events;
only the serving stack's reaction differs:

* **fault-oblivious** — ``FaultSchedule(fault_aware=False)``: dispatch
  ignores liveness.  A dead shard fails requests instantly without
  advancing its busy horizon, so least-loaded dispatch keeps feeding the
  "idle-looking" dead shard for the whole outage (the classic
  no-health-check death spiral); queued work dies with its shard at a
  crash, and in-flight kills are terminal.  Goodput collapses for the
  whole outage window.
* **fault-aware** — the full subsystem of :mod:`repro.serving.faults`:
  crashes are detected at dispatch, queued work drains to the surviving
  shards (migration), in-flight failures retry with exponential backoff
  under a per-request budget, and admission predicts against live shards
  only.

A second section stress-tests scale: a 100k-request bursty trace
(``--quick``: 10k) through the autoscaled online loop under a seeded
random crash/recover/slowdown schedule, checking exact conservation
(offered == served + shed + failed) and recording wall-clock.

The document's ``gates`` hold fault-aware goodput at >= 2x fault-oblivious
goodput (and half the committed ratio) and the stress run's conservation.
The exit code, the pytest-benchmark entry and ``check_perf_regression.py``
all evaluate them.

A full run writes ``BENCH_fault_tolerance.json`` at the repo root;
``--quick`` writes under ``benchmarks/results/``.
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

from repro.serving import (
    Autoscaler,
    BatchScheduler,
    BurstyArrivals,
    FAULT_CRASH,
    FAULT_RECOVER,
    FaultEvent,
    FaultSchedule,
    OpenLoopArrivals,
    RandomFaults,
    ServingConfig,
    ShardedServiceCluster,
    SLOPolicy,
    TraceArrivals,
)
from repro.system.service import build_services
from repro.system.workload import WorkloadProfile

from common import DEFAULT_KEEP, gate_failures, run_once, write_result

#: Output path of the machine-readable results (repo root, tracked by PRs).
RESULT_PATH = REPO_ROOT / "BENCH_fault_tolerance.json"

#: Workload mix of the traffic (same Table II mix as the other serving benches).
TRACE_DATASETS = ("PH", "AX", "MV")

#: Scheduler settings shared by both runs.
MAX_BATCH_SIZE = 4
MAX_WAIT_SECONDS = 0.005

#: Shard count of both clusters.
NUM_SHARDS = 4

#: Dispatch policy of every run.  Least-loaded is the policy the rest of
#: the serving benches use, and it is exactly what makes the oblivious
#: baseline catastrophic: a fail-fast dead shard never advances its busy
#: horizon, so it always looks least loaded and attracts all traffic until
#: it recovers.  The fault-aware run uses the same policy over live shards.
POLICY = "least-loaded"

#: The SLO, as a multiple of the mean single-request cost estimate.
SLO_COST_MULTIPLE = 3.0

#: Offered load as a multiple of the measured saturated throughput (2x = the
#: overload regime the acceptance gate is defined on).
OVERLOAD_FACTOR = 2.0

#: Outage windows as fractions of the trace horizon: two of the four shards
#: crash mid-run and recover later, staggered so capacity dips to 2/4.
OUTAGES = (
    (0, 0.10, 0.70),  # (shard, crash at, recover at) x horizon
    (1, 0.25, 0.90),
)

#: Retry policy of both schedules (the oblivious baseline never retries —
#: ``fault_aware=False`` makes in-flight crash kills terminal).
RETRY_BUDGET = 3

#: The acceptance gate: fault-aware goodput must be at least this multiple
#: of the fault-oblivious goodput on the identical run.
MIN_GOODPUT_RATIO = 2.0

#: Stress section: request budget and overload of the autoscaled run.
STRESS_REQUESTS = 100_000
STRESS_REQUESTS_QUICK = 10_000
STRESS_OVERLOAD = 1.2

SEED = 17


def _mix() -> List[WorkloadProfile]:
    return [WorkloadProfile.from_dataset(key) for key in TRACE_DATASETS]


def _scheduler() -> BatchScheduler:
    return BatchScheduler(max_batch_size=MAX_BATCH_SIZE, max_wait_seconds=MAX_WAIT_SECONDS)


def _measure_capacity(template, num_requests: int) -> float:
    """Saturated throughput of the cluster on this mix (requests/second)."""
    mix = _mix()
    estimate = sum(template.estimate_service_seconds(w) for w in mix) / len(mix)
    saturating_rate = 20.0 / estimate  # far beyond capacity: pure backlog
    cluster = ShardedServiceCluster(
        template, num_shards=NUM_SHARDS, scheduler=_scheduler(), policy=POLICY
    )
    trace = OpenLoopArrivals(mix, rate_rps=saturating_rate, seed=SEED).trace(
        num_requests
    )
    return cluster.serve_trace(trace).throughput_rps


def _outage_schedule(horizon_seconds: float, fault_aware: bool) -> FaultSchedule:
    """The staggered crash-and-recover schedule over ``horizon_seconds``."""
    events = []
    for shard_id, crash_frac, recover_frac in OUTAGES:
        events.append(
            FaultEvent(
                seconds=crash_frac * horizon_seconds,
                shard_id=shard_id,
                kind=FAULT_CRASH,
            )
        )
        events.append(
            FaultEvent(
                seconds=recover_frac * horizon_seconds,
                shard_id=shard_id,
                kind=FAULT_RECOVER,
            )
        )
    return FaultSchedule(
        events=tuple(events),
        retry_budget=RETRY_BUDGET,
        retry_backoff_seconds=0.01 * horizon_seconds,
        fault_aware=fault_aware,
    )


def _entry(report) -> Dict:
    goodput = report.goodput
    faults = report.faults
    return {
        "system": report.system,
        "num_shards": report.num_shards,
        "offered": goodput.offered,
        "served": goodput.served,
        "shed": goodput.shed,
        "failed": goodput.failed,
        "throughput_rps": round(report.throughput_rps, 3),
        "goodput_rps": round(goodput.goodput_rps, 3),
        "slo_attainment": round(goodput.slo_attainment, 4),
        "faults": faults.as_dict() if faults is not None else None,
    }


def run(quick: bool = False) -> Dict:
    """Execute the benchmark and return (and persist) the result document."""
    started = time.perf_counter()
    mix = _mix()
    services = build_services()
    template = services["DynPre"]

    mean_cost = sum(template.estimate_service_seconds(w) for w in mix) / len(mix)
    slo_seconds = SLO_COST_MULTIPLE * mean_cost
    capacity_rps = _measure_capacity(template, num_requests=200 if quick else 500)
    total_rate = OVERLOAD_FACTOR * capacity_rps
    num_requests = 400 if quick else 1000
    trace = OpenLoopArrivals(mix, rate_rps=total_rate, seed=SEED).trace(num_requests)
    horizon = trace[-1].arrival_seconds
    print(
        f"measured capacity ~{capacity_rps:.0f} rps | SLO {slo_seconds * 1e3:.1f} ms | "
        f"offered {trace.offered_rate_rps:.0f} rps "
        f"({trace.offered_rate_rps / capacity_rps:.2f}x) | {len(trace)} requests | "
        f"horizon {horizon:.3f}s"
    )

    def serve(fault_aware: bool):
        cluster = ShardedServiceCluster(
            template, num_shards=NUM_SHARDS, scheduler=_scheduler(), policy=POLICY
        )
        slo = SLOPolicy(default_slo_seconds=slo_seconds)
        return cluster.serve_online(
            TraceArrivals(trace),
            config=ServingConfig(
                slo=slo, admit=True,
                faults=_outage_schedule(horizon, fault_aware),
            ),
        )

    oblivious = serve(fault_aware=False)
    aware = serve(fault_aware=True)

    oblivious_entry = _entry(oblivious)
    aware_entry = _entry(aware)
    for label, entry in (("fault-oblivious", oblivious_entry), ("fault-aware", aware_entry)):
        print(
            f"{label:>15}: goodput {entry['goodput_rps']:8.1f} rps | "
            f"served {entry['served']:4d} | shed {entry['shed']:4d} | "
            f"failed {entry['failed']:4d} | migrated "
            f"{entry['faults']['migrated']:3d} | retried {entry['faults']['retried']:3d}"
        )
    goodput_ratio = aware_entry["goodput_rps"] / max(
        oblivious_entry["goodput_rps"], 1e-9
    )
    print(
        f"\nfault-aware goodput {aware_entry['goodput_rps']:.1f} rps vs oblivious "
        f"{oblivious_entry['goodput_rps']:.1f} rps -> {goodput_ratio:.1f}x "
        f"(gate >= {MIN_GOODPUT_RATIO:.1f}x)"
    )

    # -------------------------------------------------- autoscaled stress run
    stress_requests = STRESS_REQUESTS_QUICK if quick else STRESS_REQUESTS
    stress_rate = STRESS_OVERLOAD * capacity_rps
    stress_trace = BurstyArrivals(
        mix,
        base_rate_rps=0.5 * stress_rate,
        peak_rate_rps=2.5 * stress_rate,
        period_seconds=0.5,
        burst_fraction=0.25,
        seed=SEED + 1,
    ).trace(stress_requests)
    stress_horizon = stress_trace[-1].arrival_seconds
    stress_faults = RandomFaults(
        num_shards=NUM_SHARDS,
        horizon_seconds=stress_horizon,
        mean_uptime_seconds=0.2 * stress_horizon,
        mean_downtime_seconds=0.05 * stress_horizon,
        slowdown_probability=0.25,
        slowdown_factor=2.0,
        retry_budget=RETRY_BUDGET,
        retry_backoff_seconds=0.001 * stress_horizon,
        seed=SEED,
    ).schedule()
    slo = SLOPolicy(default_slo_seconds=slo_seconds)
    stress_cluster = ShardedServiceCluster(
        template, num_shards=NUM_SHARDS, scheduler=_scheduler(), policy=POLICY
    )
    stress_started = time.perf_counter()
    stress_report = stress_cluster.serve_online(
        TraceArrivals(stress_trace),
        config=ServingConfig(
            slo=slo, admit=True, record_decisions=False,
            autoscaler=Autoscaler(
                min_shards=2, max_shards=NUM_SHARDS, scale_up_depth=4.0,
                scale_down_depth=0.5, hysteresis_observations=3,
            ),
            faults=stress_faults,
        ),
    )
    stress_seconds = time.perf_counter() - stress_started
    stress_goodput = stress_report.goodput
    conserved = stress_goodput.offered == (
        stress_goodput.served + stress_goodput.shed + stress_goodput.failed
    )
    print(
        f"\nstress: {len(stress_trace)} bursty requests, "
        f"{len(stress_faults.events)} fault events, autoscaled 2..{NUM_SHARDS} shards "
        f"in {stress_seconds:.2f}s wall | served {stress_goodput.served} + shed "
        f"{stress_goodput.shed} + failed {stress_goodput.failed} vs offered "
        f"{stress_goodput.offered} | {len(stress_report.scaling_timeline)} scaling events"
    )

    document = {
        "benchmark": "fault_tolerance",
        "_provenance": (
            "simulated metrics from ShardedServiceCluster.serve_online (engine-"
            "independent); capacity_rps is measured on the committing machine's "
            "simulation (deterministic), wall_clock_seconds and "
            "stress.wall_clock_seconds are this script's runtimes. Regenerate "
            "with `python benchmarks/bench_fault_tolerance.py`."
        ),
        "quick": bool(quick),
        "traffic": {
            "datasets": list(TRACE_DATASETS),
            "num_requests": len(trace),
            "offered_rate_rps": round(trace.offered_rate_rps, 3),
            "overload_factor": OVERLOAD_FACTOR,
            "seed": SEED,
        },
        "outages": [
            {"shard": shard, "crash_fraction": crash, "recover_fraction": recover}
            for shard, crash, recover in OUTAGES
        ],
        "retry_budget": RETRY_BUDGET,
        "policy": POLICY,
        "scheduler": {
            "max_batch_size": MAX_BATCH_SIZE,
            "max_wait_seconds": MAX_WAIT_SECONDS,
        },
        "slo_seconds": round(slo_seconds, 6),
        "capacity_rps": round(capacity_rps, 3),
        "fault_oblivious": oblivious_entry,
        "fault_aware": aware_entry,
        "goodput_ratio": round(goodput_ratio, 3),
        "stress": {
            "num_requests": len(stress_trace),
            "num_fault_events": len(stress_faults.events),
            "offered": stress_goodput.offered,
            "served": stress_goodput.served,
            "shed": stress_goodput.shed,
            "failed": stress_goodput.failed,
            "goodput_rps": round(stress_goodput.goodput_rps, 3),
            "scaling_events": len(stress_report.scaling_timeline),
            "conserved": conserved,
            "wall_clock_seconds": round(stress_seconds, 4),
        },
        "wall_clock_seconds": round(time.perf_counter() - started, 4),
    }
    document["gates"] = [
        {"name": "goodput_ratio", "value": document["goodput_ratio"],
         "floor": MIN_GOODPUT_RATIO, "keep": DEFAULT_KEEP},
        {"name": "stress_conserved", "value": conserved, "floor": True},
    ]
    write_result(document, RESULT_PATH)
    return document


def test_fault_tolerance(benchmark):
    """Pytest-benchmark entry point with the recovery acceptance gates."""
    document = run_once(benchmark, lambda: run(quick=True))
    assert not gate_failures(document["gates"])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller request budget, written under benchmarks/results/ (CI mode)",
    )
    args = parser.parse_args(argv)
    document = run(quick=args.quick)
    return 1 if gate_failures(document["gates"]) else 0


if __name__ == "__main__":
    sys.exit(main())
