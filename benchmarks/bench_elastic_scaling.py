"""Elastic-scaling benchmark: voluntary scale-down with vs without drain.

A 2-shard CPU cluster under locality dispatch serves repeated flash
crowds: each cycle opens with a burst (queue depth crosses the scale-up
band, the second shard activates), drains into a trough (depth falls
below the scale-down band while the second shard still holds queued and
in-flight work), then the next crowd reactivates the shard.  The
workload's locality home is the shard the autoscaler deactivates, so
every scale-down decision lands on a shard with work on it — the exact
stranding scenario of the drain-and-migrate fix.

Both runs see the identical trace and the identical autoscaler bands;
only ``Autoscaler(drain=...)`` differs:

* **drain-less** (the old behaviour) — scale-down just shrinks the
  active set.  Queued work stays glued to the deactivated shard's
  horizon, so the trough trickle waits behind the whole stranded crowd
  (SLO misses), the next crowd rejoins a shard still digesting the last
  one, and the shard's lease keeps billing until the backlog clears.
* **drain-aware** (the fix) — scale-down cancels the leaving shard's
  planned-but-unstarted batches and re-dispatches them among the
  survivors; in-flight work runs to completion.  The trough trickle is
  served promptly by the surviving shard and the reactivated shard
  rejoins fresh, with the lease closed at the lowered horizon.

The document's ``gates`` hold drain-aware goodput >= MIN_GOODPUT_RATIO x
drain-less goodput AND drain-less shard-seconds >= MIN_SHARD_SECONDS_RATIO
x drain-aware shard-seconds (drain must win on BOTH axes: more requests
inside their SLO *and* fewer provisioned shard-seconds), each also at half
its committed ratio, plus both runs' conservation and a nonzero count of
migrated requests.  The exit code, the pytest-benchmark entry and
``check_perf_regression.py`` all evaluate them, so CI fails if voluntary
drains regress.

A full run writes ``BENCH_elastic_scaling.json`` at the repo root;
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
    InferenceRequest,
    RequestTrace,
    ServingConfig,
    ShardedServiceCluster,
    SLOPolicy,
    TraceArrivals,
)
from repro.serving.cluster import _home_shard
from repro.serving.scheduler import RequestBatch
from repro.system.service import build_services
from repro.system.workload import WorkloadProfile

from common import DEFAULT_KEEP, gate_failures, run_once, write_result

#: Output path of the machine-readable results (repo root, tracked by PRs).
RESULT_PATH = REPO_ROOT / "BENCH_elastic_scaling.json"

#: Shard count: one always-on shard plus one elastic shard.
NUM_SHARDS = 2

#: Dispatch policy.  Locality pins the workload to its home shard until the
#: backlog exceeds the spill threshold — which is what parks queued work on
#: the shard the autoscaler is about to deactivate.
POLICY = "locality"

#: Flash-crowd shape, in units of one measured service pass ``d``: each
#: cycle is CYCLE_UNITS long and opens with CROWD requests at once; the
#: trough trickle arrives at TRICKLE_UNITS into the cycle, deep inside the
#: crowd's backlog horizon but after the queue-depth signal has sagged
#: below the scale-down band.
CROWD = 12
TRICKLE_UNITS = (5.4, 5.5)
CYCLE_UNITS = 12.0

#: Cycle counts of the two modes.
NUM_CYCLES = 24
NUM_CYCLES_QUICK = 6

#: The SLO, as a multiple of one service pass: generous enough for the
#: crowd tail of a promptly re-balanced cluster (<= 6.5 passes), missed by
#: the deeper tail a stranded backlog and a late scale-up produce.
SLO_UNITS = 6.75

#: Autoscaler bands (queue-depth thresholds, hysteresis observations).
SCALE_UP_DEPTH = 4.0
SCALE_DOWN_DEPTH = 3.0
HYSTERESIS = 2

#: Acceptance gates: drain-aware must win on BOTH axes.
MIN_GOODPUT_RATIO = 1.05
MIN_SHARD_SECONDS_RATIO = 1.02


def _profile():
    """A workload whose locality home (at 2 active shards) is shard 1."""
    for i in range(64):
        candidate = WorkloadProfile(
            name=f"elastic-{i}", batch_size=800,
            num_nodes=50_000, num_edges=400_000, avg_degree=8.0,
        )
        batch = RequestBatch(
            requests=[
                InferenceRequest(request_id=0, arrival_seconds=0.0, workload=candidate)
            ],
            ready_seconds=0.0,
        )
        if _home_shard(batch, NUM_SHARDS) == NUM_SHARDS - 1:
            return candidate
    raise AssertionError("no candidate workload hashed to the elastic shard")


def _trace(profile, d: float, num_cycles: int) -> RequestTrace:
    requests = []
    for cycle in range(num_cycles):
        base = cycle * CYCLE_UNITS
        units = [base] * CROWD + [base + u for u in TRICKLE_UNITS]
        for u in units:
            requests.append(
                InferenceRequest(
                    request_id=len(requests), arrival_seconds=u * d, workload=profile
                )
            )
    return RequestTrace(requests)


def _entry(report) -> Dict:
    goodput = report.goodput
    scale_downs = [e for e in report.scaling_timeline if e.reason == "scale-down"]
    return {
        "system": report.system,
        "num_shards": report.num_shards,
        "offered": goodput.offered,
        "served": goodput.served,
        "shed": goodput.shed,
        "failed": goodput.failed,
        "goodput_rps": round(goodput.goodput_rps, 3),
        "slo_attainment": round(goodput.slo_attainment, 4),
        "shard_seconds": round(report.shard_seconds, 6),
        "scale_downs": len(scale_downs),
        "migrated": sum(e.migrated for e in report.scaling_timeline),
        "completed": sum(e.completed for e in report.scaling_timeline),
        "conserved": goodput.offered
        == goodput.served + goodput.shed + goodput.failed,
    }


def run(quick: bool = False) -> Dict:
    """Execute the benchmark and return (and persist) the result document."""
    started = time.perf_counter()
    services = build_services()
    template = services["CPU"]
    profile = _profile()
    d = template.replicate().serve(profile).total_seconds
    num_cycles = NUM_CYCLES_QUICK if quick else NUM_CYCLES
    trace = _trace(profile, d, num_cycles)
    slo = SLOPolicy(default_slo_seconds=SLO_UNITS * d)
    print(
        f"service pass d = {d * 1e3:.2f} ms | SLO {SLO_UNITS:.0f}d | "
        f"{num_cycles} flash-crowd cycles x {CROWD + len(TRICKLE_UNITS)} requests "
        f"= {len(trace)} requests | horizon {trace[-1].arrival_seconds:.3f}s"
    )

    def serve(drain: bool):
        cluster = ShardedServiceCluster(
            template,
            num_shards=NUM_SHARDS,
            scheduler=BatchScheduler(max_batch_size=1),
            policy=POLICY,
        )
        config = ServingConfig(
            slo=slo,
            autoscaler=Autoscaler(
                min_shards=1,
                max_shards=NUM_SHARDS,
                scale_up_depth=SCALE_UP_DEPTH,
                scale_down_depth=SCALE_DOWN_DEPTH,
                hysteresis_observations=HYSTERESIS,
                warmup_seconds=0.0,
                drain=drain,
            ),
        )
        return cluster.serve_online(TraceArrivals(trace), config=config)

    drainless_entry = _entry(serve(drain=False))
    drained_entry = _entry(serve(drain=True))
    for label, entry in (("drain-less", drainless_entry), ("drain-aware", drained_entry)):
        print(
            f"{label:>12}: goodput {entry['goodput_rps']:8.1f} rps | attainment "
            f"{entry['slo_attainment']:6.1%} | shard-seconds {entry['shard_seconds']:8.4f} | "
            f"scale-downs {entry['scale_downs']:2d} | migrated {entry['migrated']:3d} | "
            f"completed {entry['completed']:3d}"
        )

    goodput_ratio = drained_entry["goodput_rps"] / max(
        drainless_entry["goodput_rps"], 1e-9
    )
    shard_seconds_ratio = drainless_entry["shard_seconds"] / max(
        drained_entry["shard_seconds"], 1e-9
    )
    print(
        f"\ndrain-aware goodput {goodput_ratio:.2f}x drain-less "
        f"(gate >= {MIN_GOODPUT_RATIO:.2f}x) | drain-less shard-seconds "
        f"{shard_seconds_ratio:.2f}x drain-aware (gate >= {MIN_SHARD_SECONDS_RATIO:.2f}x)"
    )

    document = {
        "benchmark": "elastic_scaling",
        "_provenance": (
            "simulated metrics from ShardedServiceCluster.serve_online (engine-"
            "independent); the flash-crowd trace is built in units of the "
            "committing machine's measured service pass d (deterministic), "
            "wall_clock_seconds is this script's runtime. Regenerate with "
            "`python benchmarks/bench_elastic_scaling.py`."
        ),
        "quick": bool(quick),
        "traffic": {
            "num_requests": len(trace),
            "num_cycles": num_cycles,
            "crowd": CROWD,
            "trickle_units": list(TRICKLE_UNITS),
            "cycle_units": CYCLE_UNITS,
            "service_pass_seconds": round(d, 6),
        },
        "policy": POLICY,
        "slo_seconds": round(SLO_UNITS * d, 6),
        "autoscaler": {
            "min_shards": 1,
            "max_shards": NUM_SHARDS,
            "scale_up_depth": SCALE_UP_DEPTH,
            "scale_down_depth": SCALE_DOWN_DEPTH,
            "hysteresis_observations": HYSTERESIS,
        },
        "drain_less": drainless_entry,
        "drain_aware": drained_entry,
        "goodput_ratio": round(goodput_ratio, 3),
        "shard_seconds_ratio": round(shard_seconds_ratio, 3),
        "wall_clock_seconds": round(time.perf_counter() - started, 4),
    }
    document["gates"] = [
        {"name": "goodput_ratio", "value": document["goodput_ratio"],
         "floor": MIN_GOODPUT_RATIO, "keep": DEFAULT_KEEP},
        {"name": "shard_seconds_ratio", "value": document["shard_seconds_ratio"],
         "floor": MIN_SHARD_SECONDS_RATIO, "keep": DEFAULT_KEEP},
        {"name": "drain_aware_conserved", "value": drained_entry["conserved"], "floor": True},
        {"name": "drain_less_conserved", "value": drainless_entry["conserved"], "floor": True},
        # A drain-and-migrate quietly disabled would migrate nothing.
        {"name": "drain_aware_migrated", "value": drained_entry["migrated"], "floor": 1},
    ]
    write_result(document, RESULT_PATH)
    return document


def test_elastic_scaling(benchmark):
    """Pytest-benchmark entry point with the drain acceptance gates."""
    document = run_once(benchmark, lambda: run(quick=True))
    assert not gate_failures(document["gates"])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="fewer flash-crowd cycles, written under benchmarks/results/ (CI mode)",
    )
    args = parser.parse_args(argv)
    document = run(quick=args.quick)
    return 1 if gate_failures(document["gates"]) else 0


if __name__ == "__main__":
    sys.exit(main())
