"""Multi-tenant fairness benchmark: worst-tenant SLO attainment under
2x bursty overload, with the fairness subsystem on vs off.

Three tenants share one DynPre cluster under burst/diurnal open-loop
traffic (piecewise-rate Poisson, staggered phases): a heavy ``free``
tenant whose bursts alone oversubscribe the cluster, and two light
(``pro`` / ``ent``) tenants riding within their guaranteed rates.  Total
offered load is about twice the cluster's *measured* saturated
throughput.

* **fairness off** — the pre-tenancy serving stack: FIFO batch fill, no
  admission control.  The heavy tenant's bursts flood the queue and every
  tenant's sojourn blows through the SLO; worst-tenant attainment
  collapses.
* **fairness on** — the tenant subsystem of ``repro.serving``: per-tenant
  guaranteed-rate quotas with weighted shedding of overloaded excess
  traffic, weighted-fair (deficit round-robin) batch formation, and
  batching-aware admission.  The heavy tenant's excess is shed at arrival,
  the light tenants keep their guaranteed slots, and every tenant's
  *served* traffic stays close to its SLO.

The cluster's capacity is measured (a short saturated open-loop run), not
taken from the analytic estimate, so the guarantees stay conservative on
any machine and the scenario is a true 2x overload.

The document's one gate, worst-tenant attainment with fairness on >= 3x the
worst-tenant attainment with fairness off, is evaluated by the exit code,
the pytest-benchmark entry and ``check_perf_regression.py``, so CI fails if
the fairness subsystem regresses.

A full run writes ``BENCH_tenant_fairness.json`` at the repo root;
``--quick`` trims the request budget and writes under
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

from repro.analysis.metrics import attainment_spread, jain_fairness_index
from repro.analysis.report import format_tenant_table
from repro.serving import (
    BatchScheduler,
    BurstyArrivals,
    OpenLoopArrivals,
    ServingConfig,
    ShardedServiceCluster,
    SLOPolicy,
    TenantQuota,
    TraceArrivals,
    merge_traces,
)
from repro.system.service import build_services
from repro.system.workload import WorkloadProfile

from common import gate_failures, run_once, write_result

#: Output path of the machine-readable results (repo root, tracked by PRs).
RESULT_PATH = REPO_ROOT / "BENCH_tenant_fairness.json"

#: Workload mix of the traffic (same Table II mix as the other serving benches).
TRACE_DATASETS = ("PH", "AX", "MV")

#: Scheduler settings shared by both runs (weights only apply to fairness-on).
MAX_BATCH_SIZE = 4
MAX_WAIT_SECONDS = 0.005

#: Shard count of both clusters.
NUM_SHARDS = 4

#: The SLO, as a multiple of the mean single-request cost estimate.
SLO_COST_MULTIPLE = 3.0

#: Offered load as a multiple of the measured saturated throughput (2x = the
#: overload regime the acceptance gate is defined on).
OVERLOAD_FACTOR = 2.0

#: Tenant mix: (name, share of total offered load, guaranteed share of the
#: measured capacity, excess weight).  The heavy tenant offers 70% of the 2x
#: load; the light tenants stay within their guarantees.
TENANT_MIX = (
    ("free", 0.70, 0.10, 1.0),
    ("pro", 0.15, 0.125, 2.0),
    ("ent", 0.15, 0.125, 2.0),
)

#: Burst/diurnal envelope of every tenant stream (phases staggered).
PERIOD_SECONDS = 0.5
BURST_FRACTION = 0.25
BASE_RATE_SHARE = 0.4  # base rate as a fraction of the stream's mean rate

#: The acceptance gate: worst-tenant attainment with fairness on must be at
#: least this multiple of the fairness-off worst-tenant attainment.
MIN_WORST_ATTAINMENT_RATIO = 3.0

SEED = 11


def _mix() -> List[WorkloadProfile]:
    return [WorkloadProfile.from_dataset(key) for key in TRACE_DATASETS]


def _measure_capacity(template, scheduler, num_requests: int) -> float:
    """Saturated throughput of the cluster on this mix (requests/second)."""
    mix = _mix()
    estimate = sum(template.estimate_service_seconds(w) for w in mix) / len(mix)
    saturating_rate = 20.0 / estimate  # far beyond capacity: pure backlog
    cluster = ShardedServiceCluster(
        template, num_shards=NUM_SHARDS, scheduler=scheduler
    )
    trace = OpenLoopArrivals(mix, rate_rps=saturating_rate, seed=SEED).trace(
        num_requests
    )
    return cluster.serve_trace(trace).throughput_rps


def _bursty_trace(total_rate: float, num_requests: int):
    """Merged multi-tenant bursty trace at ``total_rate`` mean offered rps."""
    mix = _mix()
    streams = []
    budgets = []
    for i, (tenant, share, _, _) in enumerate(TENANT_MIX):
        mean = share * total_rate
        base = BASE_RATE_SHARE * mean
        peak = (mean - (1.0 - BURST_FRACTION) * base) / BURST_FRACTION
        streams.append(
            BurstyArrivals(
                mix,
                base_rate_rps=base,
                peak_rate_rps=peak,
                period_seconds=PERIOD_SECONDS,
                burst_fraction=BURST_FRACTION,
                phase_seconds=i * PERIOD_SECONDS / len(TENANT_MIX),
                tenant=tenant,
                seed=SEED + i,
            )
        )
        budgets.append(max(int(round(share * num_requests)), 1))
    return merge_traces(
        [stream.trace(budget) for stream, budget in zip(streams, budgets)]
    )


def _entry(report) -> Dict:
    goodput = report.goodput
    tenants = {
        tenant: {
            "offered": stats.offered,
            "served": stats.served,
            "shed": stats.shed,
            "shed_rate": round(stats.shed_rate, 4),
            "slo_attainment": round(stats.slo_attainment, 4),
            "p95_seconds": round(stats.latency.p95, 6),
        }
        for tenant, stats in report.tenant_stats.items()
    }
    worst = min(
        (stats.slo_attainment for stats in report.tenant_stats.values()),
        default=0.0,
    )
    return {
        "system": report.system,
        "num_shards": report.num_shards,
        "throughput_rps": round(report.throughput_rps, 3),
        "goodput_rps": round(goodput.goodput_rps, 3),
        "shed_rate": round(goodput.shed_rate, 4),
        "slo_attainment": round(goodput.slo_attainment, 4),
        "worst_tenant_attainment": round(worst, 4),
        "attainment_spread": round(
            min(attainment_spread(report.tenant_stats.values()), 1e9), 3
        ),
        "jain_attainment_index": round(
            jain_fairness_index(
                [stats.slo_attainment for stats in report.tenant_stats.values()]
            ),
            4,
        ),
        "tenants": tenants,
    }


def run(quick: bool = False) -> Dict:
    """Execute the benchmark and return (and persist) the result document."""
    started = time.perf_counter()
    mix = _mix()
    services = build_services()
    template = services["DynPre"]
    scheduler_off = BatchScheduler(
        max_batch_size=MAX_BATCH_SIZE, max_wait_seconds=MAX_WAIT_SECONDS
    )

    mean_cost = sum(template.estimate_service_seconds(w) for w in mix) / len(mix)
    slo_seconds = SLO_COST_MULTIPLE * mean_cost
    capacity_rps = _measure_capacity(
        template, scheduler_off, num_requests=200 if quick else 500
    )
    total_rate = OVERLOAD_FACTOR * capacity_rps
    num_requests = 400 if quick else 1000
    trace = _bursty_trace(total_rate, num_requests)
    print(
        f"measured capacity ~{capacity_rps:.0f} rps | SLO {slo_seconds * 1e3:.1f} ms | "
        f"offered {trace.offered_rate_rps:.0f} rps "
        f"({trace.offered_rate_rps / capacity_rps:.2f}x) | {len(trace)} requests"
    )

    # ------------------------------------------------------- fairness off
    off_cluster = ShardedServiceCluster(
        template, num_shards=NUM_SHARDS, scheduler=scheduler_off
    )
    slo_off = SLOPolicy(default_slo_seconds=slo_seconds)
    fairness_off = off_cluster.serve_online(
        TraceArrivals(trace), config=ServingConfig(slo=slo_off)
    )

    # -------------------------------------------------------- fairness on
    tenant_weights = {tenant: weight for tenant, _, _, weight in TENANT_MIX}
    scheduler_on = BatchScheduler(
        max_batch_size=MAX_BATCH_SIZE,
        max_wait_seconds=MAX_WAIT_SECONDS,
        tenant_weights=tenant_weights,
    )
    slo_on = SLOPolicy(
        default_slo_seconds=slo_seconds,
        per_tenant={
            tenant: TenantQuota(
                guaranteed_rps=guarantee_share * capacity_rps, weight=weight
            )
            for tenant, _, guarantee_share, weight in TENANT_MIX
        },
    )
    on_cluster = ShardedServiceCluster(
        template, num_shards=NUM_SHARDS, scheduler=scheduler_on
    )
    fairness_on = on_cluster.serve_online(
        TraceArrivals(trace),
        config=ServingConfig(slo=slo_on, admit=True, batch_aware=True),
    )

    for label, report in (("fairness off", fairness_off), ("fairness on", fairness_on)):
        print("\n" + format_tenant_table(f"{label}: per-tenant accounting",
                                         report.tenant_stats))

    off_entry = _entry(fairness_off)
    on_entry = _entry(fairness_on)
    worst_ratio = on_entry["worst_tenant_attainment"] / max(
        off_entry["worst_tenant_attainment"], 1e-9
    )
    print(
        f"\nworst-tenant attainment: fairness on {on_entry['worst_tenant_attainment']:.3f} "
        f"vs off {off_entry['worst_tenant_attainment']:.3f} -> {worst_ratio:.1f}x "
        f"(gate >= {MIN_WORST_ATTAINMENT_RATIO:.1f}x)"
    )

    document = {
        "benchmark": "tenant_fairness",
        "_provenance": (
            "simulated metrics from ShardedServiceCluster.serve_online (engine-"
            "independent); capacity_rps is measured on the committing machine's "
            "simulation (deterministic), wall_clock_seconds is this script's "
            "total runtime. Regenerate with "
            "`python benchmarks/bench_tenant_fairness.py`."
        ),
        "quick": bool(quick),
        "traffic": {
            "datasets": list(TRACE_DATASETS),
            "num_requests": len(trace),
            "offered_rate_rps": round(trace.offered_rate_rps, 3),
            "overload_factor": OVERLOAD_FACTOR,
            "period_seconds": PERIOD_SECONDS,
            "burst_fraction": BURST_FRACTION,
            "tenant_mix": [
                {
                    "tenant": tenant,
                    "offered_share": share,
                    "guaranteed_capacity_share": guarantee,
                    "weight": weight,
                }
                for tenant, share, guarantee, weight in TENANT_MIX
            ],
            "seed": SEED,
        },
        "scheduler": {
            "max_batch_size": MAX_BATCH_SIZE,
            "max_wait_seconds": MAX_WAIT_SECONDS,
        },
        "slo_seconds": round(slo_seconds, 6),
        "capacity_rps": round(capacity_rps, 3),
        "fairness_off": off_entry,
        "fairness_on": on_entry,
        "worst_attainment_ratio": round(worst_ratio, 3),
        "wall_clock_seconds": round(time.perf_counter() - started, 4),
    }
    document["gates"] = [
        {"name": "worst_attainment_ratio", "value": document["worst_attainment_ratio"],
         "floor": MIN_WORST_ATTAINMENT_RATIO},
    ]
    write_result(document, RESULT_PATH)
    return document


def test_tenant_fairness(benchmark):
    """Pytest-benchmark entry point with the fairness acceptance gate."""
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
