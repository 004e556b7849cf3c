"""SLO-control benchmark: goodput under 2x overload, with vs without control.

Drives a co-simulated closed-loop client population (arrivals fed by actual
completion times, shed requests retried after a backoff) through two DynPre
clusters under identical traffic parameters:

* **uncontrolled** — every shard active from the start, no admission
  control: the backlog grows with the client population and most sojourns
  blow through the SLO.
* **controlled** — the serving control plane of ``repro.serving.control``:
  predictive admission sheds requests whose predicted sojourn would violate
  the SLO, and a queue-depth autoscaler grows the active shard set with
  hysteresis and bitstream warm-up penalties.

The client population is sized to offer roughly twice the concurrency the
cluster can serve within the SLO, so the uncontrolled run saturates and its
goodput (SLO-met requests per second) collapses while its raw throughput
stays high — exactly the regime the paper's preprocessing-bound serving
story cares about.

Results are written to ``BENCH_slo_control.json`` at the repo root.  The
acceptance gate — controlled goodput >= 1.5x uncontrolled goodput — is
enforced by the exit code (and the pytest-benchmark entry), so CI fails if
the control plane regresses.

Run standalone (``--quick`` trims the request budget) or through
pytest-benchmark like the figure benchmarks.
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

from repro.analysis.report import format_distribution, format_timeline
from repro.serving import (
    Autoscaler,
    BatchScheduler,
    ClosedLoopClients,
    ServingController,
    ServingConfig,
    ShardedServiceCluster,
    SLOPolicy,
)
from repro.system.service import build_services
from repro.system.workload import WorkloadProfile

#: Output path of the machine-readable results (repo root, tracked by PRs).
RESULT_PATH = REPO_ROOT / "BENCH_slo_control.json"

#: Workload mix of the traffic (same Table II mix as the throughput bench).
TRACE_DATASETS = ("PH", "AX", "MV")

#: Scheduler settings shared by both runs.
MAX_BATCH_SIZE = 4
MAX_WAIT_SECONDS = 0.005

#: Shard count of both clusters (the controlled run autoscales within it).
NUM_SHARDS = 4

#: The SLO, as a multiple of the mean single-request cost estimate.
SLO_COST_MULTIPLE = 3.0

#: Offered concurrency, as a multiple of what fits within the SLO (2x = the
#: overload regime the acceptance gate is defined on).
OVERLOAD_FACTOR = 2.0

#: The acceptance gate: controlled goodput must be at least this multiple of
#: the uncontrolled goodput on identical traffic parameters.
MIN_GOODPUT_RATIO = 1.5

SEED = 7


def _mix() -> List[WorkloadProfile]:
    return [WorkloadProfile.from_dataset(key) for key in TRACE_DATASETS]


def _entry(report) -> Dict:
    latency = report.latency
    goodput = report.goodput
    return {
        "system": report.system,
        "policy": report.policy,
        "num_shards": report.num_shards,
        "num_batches": report.num_batches,
        "makespan_seconds": round(report.makespan_seconds, 6),
        "throughput_rps": round(report.throughput_rps, 3),
        "goodput_rps": round(goodput.goodput_rps, 3),
        "offered": goodput.offered,
        "served": goodput.served,
        "shed": goodput.shed,
        "shed_rate": round(goodput.shed_rate, 4),
        "slo_attainment": round(goodput.slo_attainment, 4),
        "latency_seconds": {
            "p50": round(latency.p50, 6),
            "p95": round(latency.p95, 6),
            "p99": round(latency.p99, 6),
            "mean": round(latency.mean, 6),
        },
        "scaling_timeline": [
            [round(event.seconds, 6), event.active_shards, event.reason]
            for event in report.scaling_timeline
        ],
    }


def run(quick: bool = False) -> Dict:
    """Execute the benchmark and return (and persist) the result document."""
    started = time.perf_counter()
    mix = _mix()
    services = build_services()
    template = services["DynPre"]
    scheduler = BatchScheduler(
        max_batch_size=MAX_BATCH_SIZE, max_wait_seconds=MAX_WAIT_SECONDS
    )

    # ---------------------------------------------------- traffic calibration
    # Mean per-request cost (estimates are side-effect free) prices the SLO;
    # the merged-batch cost prices the cluster's SLO-bounded concurrency,
    # from which the 2x-overload client population follows.
    mean_cost = sum(template.estimate_service_seconds(w) for w in mix) / len(mix)
    batch_cost = sum(
        template.estimate_service_seconds(w.with_batch_size(w.batch_size * MAX_BATCH_SIZE))
        for w in mix
    ) / len(mix)
    slo_seconds = SLO_COST_MULTIPLE * mean_cost
    capacity_rps = NUM_SHARDS * MAX_BATCH_SIZE / batch_cost
    num_clients = max(int(round(OVERLOAD_FACTOR * capacity_rps * slo_seconds)), 2)
    # The budget must comfortably exceed the client population, or the run
    # ends before the closed loop (and the autoscaler) reaches steady state.
    max_requests = num_clients * (2 if quick else 5)
    retry_backoff = slo_seconds / 2.0
    slo = SLOPolicy(default_slo_seconds=slo_seconds)
    print(
        f"mean cost {mean_cost * 1e3:.1f} ms | SLO {slo_seconds * 1e3:.1f} ms | "
        f"capacity ~{capacity_rps:.0f} rps | {num_clients} closed-loop clients "
        f"({OVERLOAD_FACTOR:.0f}x overload) | {max_requests} requests"
    )

    def clients() -> ClosedLoopClients:
        return ClosedLoopClients(
            mix,
            num_clients=num_clients,
            think_seconds=0.0,
            seed=SEED,
            max_requests=max_requests,
            retry_backoff_seconds=retry_backoff,
        )

    # -------------------------------------------------------- the two runs
    uncontrolled_cluster = ShardedServiceCluster(
        template, num_shards=NUM_SHARDS, scheduler=scheduler
    )
    uncontrolled = uncontrolled_cluster.serve_online(
        clients(), config=ServingConfig(slo=slo)
    )

    controlled_cluster = ShardedServiceCluster(
        template, num_shards=NUM_SHARDS, scheduler=scheduler
    )
    autoscaler = Autoscaler(
        min_shards=1,
        max_shards=NUM_SHARDS,
        scale_up_depth=2.0 * MAX_BATCH_SIZE,
        scale_down_depth=0.5 * MAX_BATCH_SIZE,
        hysteresis_observations=3,
    )
    controlled = ServingController(
        controlled_cluster, slo=slo, autoscaler=autoscaler
    ).serve(clients())

    stats_by_label = {
        "uncontrolled": uncontrolled.latency,
        "controlled": controlled.latency,
    }
    for label, report in (("uncontrolled", uncontrolled), ("controlled", controlled)):
        goodput = report.goodput
        print(
            f"{label:>12}: goodput {goodput.goodput_rps:7.1f} rps | "
            f"throughput {report.throughput_rps:7.1f} rps | "
            f"shed {goodput.shed_rate * 100:5.1f}% | "
            f"SLO attainment {goodput.slo_attainment * 100:5.1f}%"
        )

    goodput_ratio = controlled.goodput_rps / max(uncontrolled.goodput_rps, 1e-12)
    print(f"\ncontrolled vs uncontrolled goodput: {goodput_ratio:.2f}x "
          f"(gate >= {MIN_GOODPUT_RATIO:.1f}x)")
    print("\n" + format_distribution("sojourn latency (s)", stats_by_label))
    print("\n" + format_timeline("controlled-run scaling timeline",
                                 controlled.scaling_timeline))

    document = {
        "benchmark": "slo_control",
        "_provenance": (
            "simulated metrics from ShardedServiceCluster.serve_online (engine-"
            "independent); wall_clock_seconds is this script's total runtime on "
            "the committing machine. Regenerate with "
            "`python benchmarks/bench_slo_control.py`."
        ),
        "quick": bool(quick),
        "traffic": {
            "datasets": list(TRACE_DATASETS),
            "num_clients": num_clients,
            "max_requests": max_requests,
            "think_seconds": 0.0,
            "retry_backoff_seconds": round(retry_backoff, 6),
            "seed": SEED,
            "overload_factor": OVERLOAD_FACTOR,
        },
        "scheduler": {
            "max_batch_size": MAX_BATCH_SIZE,
            "max_wait_seconds": MAX_WAIT_SECONDS,
        },
        "slo_seconds": round(slo_seconds, 6),
        "capacity_estimate_rps": round(capacity_rps, 3),
        "uncontrolled": _entry(uncontrolled),
        "controlled": _entry(controlled),
        "goodput_ratio": round(goodput_ratio, 3),
        "min_goodput_ratio": MIN_GOODPUT_RATIO,
        "wall_clock_seconds": round(time.perf_counter() - started, 4),
    }
    RESULT_PATH.write_text(json.dumps(document, indent=2) + "\n")
    print(f"\nresults written to {RESULT_PATH}")
    return document


def test_slo_control(benchmark):
    """Pytest-benchmark entry point with the goodput acceptance gate."""
    from common import run_once

    document = run_once(benchmark, lambda: run(quick=True))
    assert document["goodput_ratio"] >= MIN_GOODPUT_RATIO


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller request budget (CI mode)",
    )
    args = parser.parse_args(argv)
    document = run(quick=args.quick)
    if document["goodput_ratio"] < MIN_GOODPUT_RATIO:
        print(
            f"CONTROL REGRESSION: goodput ratio {document['goodput_ratio']:.2f}x "
            f"< {MIN_GOODPUT_RATIO:.1f}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
