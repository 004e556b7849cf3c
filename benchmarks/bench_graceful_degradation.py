"""Graceful-degradation benchmark: tiered serving vs binary shedding.

Drives the same 2x-overload closed-loop client population through two
admission-controlled DynPre clusters:

* **binary** — classic predictive admission: a request whose predicted
  sojourn violates the SLO is shed outright (the ``bench_slo_control``
  regime).
* **tiered** — the same controller with a ``DegradationPolicy``: before
  shedding, admission re-prices the request's cheaper execution profile
  (half the sampled neighbours, one hop fewer) against *its own* open
  batch and, when that prediction fits the SLO, serves the request
  degraded instead of dropping it.

The comparison metric is **SLO-weighted goodput**: full-quality SLO-met
requests count 1.0, degraded SLO-met requests count ``DEGRADED_UTILITY``
(0.5), shed requests count 0 — so the tiered run only wins by converting
would-be sheds into cheap useful work, not by relabeling.

The document's ``gates`` hold tiered SLO-weighted goodput at >=
``MIN_WEIGHTED_RATIO`` x binary (and half the committed ratio) and each
run's per-tier conservation.  The exit code, the pytest-benchmark entry and
``benchmarks/check_perf_regression.py`` all evaluate them.

A full run writes ``BENCH_graceful_degradation.json`` at the repo root;
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

from repro.analysis.report import format_distribution
from repro.serving import (
    BatchScheduler,
    ClosedLoopClients,
    DegradationPolicy,
    ServingConfig,
    ShardedServiceCluster,
    SLOPolicy,
)
from repro.system.service import build_services
from repro.system.workload import WorkloadProfile

from common import DEFAULT_KEEP, gate_failures, run_once, write_result

#: Output path of the machine-readable results (repo root, tracked by PRs).
RESULT_PATH = REPO_ROOT / "BENCH_graceful_degradation.json"

#: Workload mix of the traffic: the sampling-bound Table II datasets at
#: three sampling hops.  Degradation only has headroom where the sampled
#: neighbourhood dominates the pass (k/2 and one hop fewer collapse the
#: selection count ~12x); transfer-bound workloads (e.g. AX) barely change
#: and are deliberately excluded — shedding remains the right call there.
TRACE_DATASETS = ("PH", "MV")
NUM_LAYERS = 3

#: Scheduler settings shared by both runs.
MAX_BATCH_SIZE = 4
MAX_WAIT_SECONDS = 0.005

#: Shard count of both clusters.
NUM_SHARDS = 4

#: The SLO, as a multiple of the mean single-request cost estimate.  Tight
#: (1.5x) on purpose: full-quality passes barely fit, so binary admission
#: sheds most of the overload while the ~12x-cheaper degraded profile still
#: fits comfortably — the regime quality-latency tiering exists for.
SLO_COST_MULTIPLE = 1.5

#: Offered concurrency, as a multiple of what fits within the SLO (2x = the
#: overload regime the acceptance gate is defined on).
OVERLOAD_FACTOR = 2.0

#: Utility of a degraded SLO-met request relative to a full-quality one.
DEGRADED_UTILITY = 0.5

#: The degraded execution profile: half the sampled neighbours, one hop less.
DEGRADATION = DegradationPolicy(
    k_factor=0.5, layer_drop=1, degraded_utility=DEGRADED_UTILITY
)

#: The acceptance gate: tiered SLO-weighted goodput must be at least this
#: multiple of binary shedding's on identical traffic parameters.
MIN_WEIGHTED_RATIO = 1.5

SEED = 7


def _mix() -> List[WorkloadProfile]:
    return [
        WorkloadProfile.from_dataset(key, num_layers=NUM_LAYERS)
        for key in TRACE_DATASETS
    ]


def _entry(report) -> Dict:
    latency = report.latency
    goodput = report.goodput
    return {
        "system": report.system,
        "num_shards": report.num_shards,
        "num_batches": report.num_batches,
        "makespan_seconds": round(report.makespan_seconds, 6),
        "throughput_rps": round(report.throughput_rps, 3),
        "goodput_rps": round(goodput.goodput_rps, 3),
        "weighted_goodput_rps": round(
            goodput.slo_weighted_goodput_rps(DEGRADED_UTILITY), 3
        ),
        "offered": goodput.offered,
        "served_full": goodput.served_full,
        "served_degraded": goodput.served_degraded,
        "shed": goodput.shed,
        "failed": goodput.failed,
        "slo_met_full": goodput.slo_met_full,
        "slo_met_degraded": goodput.slo_met_degraded,
        "shed_rate": round(goodput.shed_rate, 4),
        "slo_attainment": round(goodput.slo_attainment, 4),
        "conserved": goodput.offered
        == goodput.served_full + goodput.served_degraded + goodput.shed + goodput.failed,
        "latency_seconds": {
            "p50": round(latency.p50, 6),
            "p95": round(latency.p95, 6),
            "p99": round(latency.p99, 6),
            "mean": round(latency.mean, 6),
        },
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
    # Identical to bench_slo_control: the merged-batch cost prices the
    # cluster's SLO-bounded concurrency, from which the 2x-overload client
    # population follows.
    mean_cost = sum(template.estimate_service_seconds(w) for w in mix) / len(mix)
    batch_cost = sum(
        template.estimate_service_seconds(w.with_batch_size(w.batch_size * MAX_BATCH_SIZE))
        for w in mix
    ) / len(mix)
    slo_seconds = SLO_COST_MULTIPLE * mean_cost
    capacity_rps = NUM_SHARDS * MAX_BATCH_SIZE / batch_cost
    num_clients = max(int(round(OVERLOAD_FACTOR * capacity_rps * slo_seconds)), 2)
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

    def cluster() -> ShardedServiceCluster:
        return ShardedServiceCluster(
            template, num_shards=NUM_SHARDS, scheduler=scheduler
        )

    # -------------------------------------------------------- the two runs
    binary = cluster().serve_online(
        clients(), config=ServingConfig(slo=slo, admit=True)
    )
    tiered = cluster().serve_online(
        clients(), config=ServingConfig(slo=slo, admit=True, degradation=DEGRADATION)
    )

    stats_by_label = {"binary": binary.latency, "tiered": tiered.latency}
    for label, report in (("binary", binary), ("tiered", tiered)):
        goodput = report.goodput
        print(
            f"{label:>7}: weighted goodput "
            f"{goodput.slo_weighted_goodput_rps(DEGRADED_UTILITY):7.1f} rps | "
            f"full {goodput.served_full:5d} | degraded {goodput.served_degraded:5d} | "
            f"shed {goodput.shed:5d} | "
            f"SLO attainment {goodput.slo_attainment * 100:5.1f}%"
        )

    binary_weighted = binary.goodput.slo_weighted_goodput_rps(DEGRADED_UTILITY)
    tiered_weighted = tiered.goodput.slo_weighted_goodput_rps(DEGRADED_UTILITY)
    weighted_ratio = tiered_weighted / max(binary_weighted, 1e-12)
    print(
        f"\ntiered vs binary SLO-weighted goodput: {weighted_ratio:.2f}x "
        f"(gate >= {MIN_WEIGHTED_RATIO:.1f}x)"
    )
    print("\n" + format_distribution("sojourn latency (s)", stats_by_label))

    document = {
        "benchmark": "graceful_degradation",
        "_provenance": (
            "simulated metrics from ShardedServiceCluster.serve_online (engine-"
            "independent); wall_clock_seconds is this script's total runtime on "
            "the committing machine. Regenerate with "
            "`python benchmarks/bench_graceful_degradation.py`."
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
        "degradation": DEGRADATION.as_dict(),
        "degraded_utility": DEGRADED_UTILITY,
        "binary": _entry(binary),
        "tiered": _entry(tiered),
        "weighted_goodput_ratio": round(weighted_ratio, 3),
        "wall_clock_seconds": round(time.perf_counter() - started, 4),
    }
    document["gates"] = [
        {"name": "weighted_goodput_ratio", "value": document["weighted_goodput_ratio"],
         "floor": MIN_WEIGHTED_RATIO, "keep": DEFAULT_KEEP},
    ] + [
        {"name": f"{label}_conserved", "value": document[label]["conserved"], "floor": True}
        for label in ("binary", "tiered")
    ]
    write_result(document, RESULT_PATH)
    return document


def test_graceful_degradation(benchmark):
    """Pytest-benchmark entry point with the weighted-goodput acceptance gates."""
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
