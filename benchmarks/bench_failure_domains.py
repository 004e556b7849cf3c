"""Failure-domain benchmark: goodput under a rack outage, domain-aware
placement vs domain-oblivious placement.

A 6-shard DynPre cluster (three racks of two shards,
``ClusterTopology.uniform(6, 3)``) serves open-loop traffic at ~2x its
*measured* saturated throughput while whole racks black out mid-run: rack0
goes down early and stays down for most of the run, and rack1 fails while
rack0 is still dark (the correlated double hit).  Both runs see the exact
same arrivals and the exact same expanded fault schedule; only placement
differs:

* **domain-oblivious** — ``topology=None``: the autoscaler's active prefix
  fills shard ids in order, so the 2-shard steady state is ``{0, 1}`` —
  *both* in rack0.  The rack0 outage takes out the entire active set at one
  instant; fault-time substitution walks the dense order onto rack1, and
  the second hit takes the substitutes down too (the correlated-failure
  death march).
* **domain-aware** — ``topology=...``: the activation order round-robins
  across racks, so the same 2-shard steady state spans two racks and each
  rack outage clips at most one active shard; standby substitution prefers
  shards in racks whose members are all alive.

Where the advantage comes from.  Substitution keeps two live shards on
both placements, so the damage is what a hit costs on the way:

* a standby that starts substituting is *activated* and first programs
  its bitstream (the shard's ``warmup_seconds``, 0.228 s for DynPre, the
  same charge a scale-up join pays).  Each rack hit on the dense prefix
  activates two cold standbys at once and leaves no warm shard serving
  until they are up; a hit on the spread prefix activates one while the
  surviving active shard keeps serving.  This is most of the gap;
* each hit kills the in-flight batch of every active shard in the rack
  (two on the dense prefix, one on the spread prefix), and the killed
  requests retry past the SLO.  With the 5 ms batching window batches
  hold one or two requests, so this channel is small.

The ``warm_standby_ablation`` section re-runs both placements with a zero
warm-up (``Autoscaler(warmup_seconds=0.0)``; with a fixed 2-shard active
set nothing else warms up), which leaves only the kill channel.  It is
recorded, not gated: it reads below 1x, because admission prices a new
request against the least-loaded live shard even when that shard is
queued up to its own next crash and cannot take the work, and only the
spread placement mixes such a doomed shard with a shard that can.

A second section stress-tests the correlated generator: a bursty trace
through the autoscaled online loop under ``RandomFaults(correlated=...)``
whole-rack outages, checking exact conservation
(offered == served + shed + failed) and that the report's per-domain
outage section saw the blackouts.  The result JSON embeds the generator's
:meth:`~repro.serving.faults.RandomFaults.provenance` dict and the
deterministic outage schedule under ``_provenance`` so the exact schedules
can be rebuilt from the artifact alone.

The document's ``gates`` hold domain-aware goodput at >= 1.2x
domain-oblivious goodput (and half the committed ratio), the stress run's
conservation and at least one observed whole-rack outage.  The exit code,
the pytest-benchmark entry and ``check_perf_regression.py`` all evaluate
them.

A full run writes ``BENCH_failure_domains.json`` at the repo root;
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
    ClusterTopology,
    CorrelatedFaults,
    DomainFaultEvent,
    FAULT_CRASH_DOMAIN,
    FAULT_RECOVER_DOMAIN,
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
RESULT_PATH = REPO_ROOT / "BENCH_failure_domains.json"

#: Workload mix of the traffic (same Table II mix as the other serving benches).
TRACE_DATASETS = ("PH", "AX", "MV")

#: Scheduler settings shared by both runs.
MAX_BATCH_SIZE = 4
MAX_WAIT_SECONDS = 0.005

#: Shard and rack counts: three racks of two shards.
NUM_SHARDS = 6
NUM_DOMAINS = 3

#: The SLO, as a multiple of the mean single-request cost estimate.  Tight
#: enough that work delayed by an in-flight kill (retry backoff plus a
#: re-queue behind the substituted shards' backlog) misses it — that is the
#: damage channel the placement gate measures.
SLO_COST_MULTIPLE = 2.0

#: Offered load as a multiple of the measured saturated throughput (2x = the
#: overload regime the acceptance gate is defined on).
OVERLOAD_FACTOR = 2.0

#: Rack outage cycles as fractions of the trace horizon.  Each hit kills
#: the in-flight batches of every *active* shard in the rack, and both
#: placements substitute dead slots with live standbys, so the number of
#: live shards is identical — the differential is blast radius.  Every
#: cycle chains rack0 then rack1: the dense prefix keeps both active slots
#: in rack0, loses both to the rack0 crash, re-concentrates into rack1
#: (the next shard ids, two cold activations) and loses both again when
#: rack1 follows, activating rack2 cold — four kills and four cold
#: activations per cycle, versus one kill and one cold activation per
#: crash for the spread placement, whose healthy-domain-first substitution
#: backfills into rack2 instead.  rack2's lone hit lands in a healthy gap
#: (a recorded outage with no active shard on either placement).
DOMAIN_OUTAGES = (
    ("rack0", tuple((0.05 + 0.20 * i, 0.15 + 0.20 * i) for i in range(5))),
    ("rack1", tuple((0.10 + 0.20 * i, 0.20 + 0.20 * i) for i in range(5))),
    ("rack2", ((0.965, 0.985),)),
)

#: Retry policy of both schedules: one retry, so a batch killed twice by
#: back-to-back rack hits fails terminally.
RETRY_BUDGET = 1

#: The acceptance gate: domain-aware goodput must be at least this multiple
#: of the domain-oblivious goodput on the identical run.
MIN_DOMAIN_GOODPUT_RATIO = 1.2

#: Autoscaler bounds shared by both runs (the 2-shard steady state is what
#: makes placement matter: dense packs it into one rack).
MIN_ACTIVE_SHARDS = 2

#: Stress section: request budget and overload of the correlated-fault run.
STRESS_REQUESTS = 50_000
STRESS_REQUESTS_QUICK = 5_000
STRESS_OVERLOAD = 1.2

SEED = 23


def _mix() -> List[WorkloadProfile]:
    return [WorkloadProfile.from_dataset(key) for key in TRACE_DATASETS]


def _scheduler() -> BatchScheduler:
    return BatchScheduler(max_batch_size=MAX_BATCH_SIZE, max_wait_seconds=MAX_WAIT_SECONDS)


def _topology() -> ClusterTopology:
    return ClusterTopology.uniform(NUM_SHARDS, NUM_DOMAINS)


def _measure_capacity(template, num_requests: int) -> float:
    """Saturated throughput of the *active* shard set (requests/second).

    The autoscaler pins ``MIN_ACTIVE_SHARDS`` active shards, so the 2x
    overload regime is defined against that steady-state capacity, not the
    full provisioned cluster's.
    """
    mix = _mix()
    estimate = sum(template.estimate_service_seconds(w) for w in mix) / len(mix)
    saturating_rate = 20.0 / estimate  # far beyond capacity: pure backlog
    cluster = ShardedServiceCluster(
        template, num_shards=MIN_ACTIVE_SHARDS, scheduler=_scheduler()
    )
    trace = OpenLoopArrivals(mix, rate_rps=saturating_rate, seed=SEED).trace(num_requests)
    return cluster.serve_trace(trace).throughput_rps


def _outage_schedule(horizon_seconds: float) -> FaultSchedule:
    """The cycling whole-rack outage schedule over ``horizon_seconds``."""
    events = []
    for domain, cycles in DOMAIN_OUTAGES:
        for crash_frac, recover_frac in cycles:
            events.append(
                DomainFaultEvent(crash_frac * horizon_seconds, domain, FAULT_CRASH_DOMAIN)
            )
            events.append(
                DomainFaultEvent(
                    recover_frac * horizon_seconds, domain, FAULT_RECOVER_DOMAIN
                )
            )
    return FaultSchedule(
        domain_events=tuple(events),
        topology=_topology(),
        retry_budget=RETRY_BUDGET,
        retry_backoff_seconds=0.03 * horizon_seconds,
    )


def _entry(report) -> Dict:
    goodput = report.goodput
    faults = report.faults
    domains = faults.domains or () if faults is not None else ()
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
        "migrated": faults.migrated if faults is not None else 0,
        "retried": faults.retried if faults is not None else 0,
        "domain_outages": sum(stats.outages for stats in domains),
        "domain_outage_seconds": round(
            sum(stats.outage_seconds for stats in domains), 6
        ),
        "scaling_events": len(report.scaling_timeline),
    }


def run(quick: bool = False) -> Dict:
    """Execute the benchmark and return (and persist) the result document."""
    started = time.perf_counter()
    mix = _mix()
    services = build_services()
    template = services["DynPre"]
    topology = _topology()

    mean_cost = sum(template.estimate_service_seconds(w) for w in mix) / len(mix)
    slo_seconds = SLO_COST_MULTIPLE * mean_cost
    capacity_rps = _measure_capacity(template, num_requests=200 if quick else 500)
    total_rate = OVERLOAD_FACTOR * capacity_rps
    num_requests = 400 if quick else 1000
    trace = OpenLoopArrivals(mix, rate_rps=total_rate, seed=SEED).trace(num_requests)
    horizon = trace[-1].arrival_seconds
    schedule = _outage_schedule(horizon)
    print(
        f"measured capacity ~{capacity_rps:.0f} rps | SLO {slo_seconds * 1e3:.1f} ms | "
        f"offered {trace.offered_rate_rps:.0f} rps "
        f"({trace.offered_rate_rps / capacity_rps:.2f}x) | {len(trace)} requests | "
        f"horizon {horizon:.3f}s | racks {topology.as_dict()}"
    )

    def serve(domain_aware: bool, warmup_seconds: Optional[float] = None):
        cluster = ShardedServiceCluster(
            template,
            num_shards=NUM_SHARDS,
            scheduler=_scheduler(),
            topology=topology if domain_aware else None,
        )
        slo = SLOPolicy(default_slo_seconds=slo_seconds)
        return cluster.serve_online(
            TraceArrivals(trace),
            config=ServingConfig(
                slo=slo,
                admit=True,
                autoscaler=Autoscaler(
                    min_shards=MIN_ACTIVE_SHARDS, max_shards=MIN_ACTIVE_SHARDS,
                    scale_up_depth=4.0, scale_down_depth=0.5,
                    hysteresis_observations=3,
                    warmup_seconds=warmup_seconds,
                ),
                faults=schedule,
            ),
        )

    oblivious = serve(domain_aware=False)
    aware = serve(domain_aware=True)

    oblivious_entry = _entry(oblivious)
    aware_entry = _entry(aware)
    for label, entry in (
        ("domain-oblivious", oblivious_entry),
        ("domain-aware", aware_entry),
    ):
        print(
            f"{label:>17}: goodput {entry['goodput_rps']:8.1f} rps | "
            f"served {entry['served']:4d} | shed {entry['shed']:4d} | "
            f"failed {entry['failed']:4d} | migrated {entry['migrated']:3d} | "
            f"retried {entry['retried']:3d} | rack outages {entry['domain_outages']}"
        )
    goodput_ratio = aware_entry["goodput_rps"] / max(
        oblivious_entry["goodput_rps"], 1e-9
    )
    print(
        f"\ndomain-aware goodput {aware_entry['goodput_rps']:.1f} rps vs oblivious "
        f"{oblivious_entry['goodput_rps']:.1f} rps -> {goodput_ratio:.2f}x "
        f"(gate >= {MIN_DOMAIN_GOODPUT_RATIO:.1f}x)"
    )
    warm_oblivious = _entry(serve(domain_aware=False, warmup_seconds=0.0))
    warm_aware = _entry(serve(domain_aware=True, warmup_seconds=0.0))
    warm_ratio = warm_aware["goodput_rps"] / max(warm_oblivious["goodput_rps"], 1e-9)
    print(
        f"warm-standby ablation (zero warm-up, kills only): "
        f"{warm_aware['goodput_rps']:.1f} vs {warm_oblivious['goodput_rps']:.1f} "
        f"rps -> {warm_ratio:.2f}x (not gated)"
    )

    # ----------------------------------------- correlated-fault stress section
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
    stress_generator = RandomFaults(
        num_shards=NUM_SHARDS,
        horizon_seconds=stress_horizon,
        mean_uptime_seconds=0.3 * stress_horizon,
        mean_downtime_seconds=0.05 * stress_horizon,
        slowdown_probability=0.25,
        slowdown_factor=2.0,
        retry_budget=RETRY_BUDGET,
        retry_backoff_seconds=0.001 * stress_horizon,
        seed=SEED,
        topology=topology,
        correlated=CorrelatedFaults(
            mean_uptime_seconds=0.25 * stress_horizon,
            mean_downtime_seconds=0.06 * stress_horizon,
        ),
    )
    stress_faults = stress_generator.schedule()
    slo = SLOPolicy(default_slo_seconds=slo_seconds)
    stress_cluster = ShardedServiceCluster(
        template, num_shards=NUM_SHARDS, scheduler=_scheduler(),
        topology=topology,
    )
    stress_started = time.perf_counter()
    stress_report = stress_cluster.serve_online(
        TraceArrivals(stress_trace),
        config=ServingConfig(
            slo=slo,
            admit=True,
            record_decisions=False,
            autoscaler=Autoscaler(
                min_shards=MIN_ACTIVE_SHARDS, max_shards=NUM_SHARDS,
                scale_up_depth=4.0, scale_down_depth=0.5,
                hysteresis_observations=3,
            ),
            faults=stress_faults,
        ),
    )
    stress_seconds = time.perf_counter() - stress_started
    stress_goodput = stress_report.goodput
    conserved = stress_goodput.offered == (
        stress_goodput.served + stress_goodput.shed + stress_goodput.failed
    )
    stress_domains = stress_report.faults.domains or ()
    stress_outages = sum(stats.outages for stats in stress_domains)
    print(
        f"\nstress: {len(stress_trace)} bursty requests, "
        f"{len(stress_faults.expanded_events)} fault events "
        f"({len(stress_faults.domain_events)} domain macros), autoscaled "
        f"{MIN_ACTIVE_SHARDS}..{NUM_SHARDS} shards in {stress_seconds:.2f}s wall | "
        f"served {stress_goodput.served} + shed {stress_goodput.shed} + failed "
        f"{stress_goodput.failed} vs offered {stress_goodput.offered} | "
        f"{stress_outages} whole-rack outages observed"
    )

    document = {
        "benchmark": "failure_domains",
        "_provenance": {
            "note": (
                "simulated metrics from ShardedServiceCluster.serve_online "
                "(engine-independent); capacity_rps is measured on the "
                "committing machine's simulation (deterministic), "
                "wall_clock_seconds and stress.wall_clock_seconds are this "
                "script's runtimes. Regenerate with "
                "`python benchmarks/bench_failure_domains.py`."
            ),
            # Enough to rebuild both schedules from this artifact alone.
            "outage_schedule": schedule.as_dict(),
            "stress_faults": stress_generator.provenance(),
        },
        "quick": bool(quick),
        "traffic": {
            "datasets": list(TRACE_DATASETS),
            "num_requests": len(trace),
            "offered_rate_rps": round(trace.offered_rate_rps, 3),
            "overload_factor": OVERLOAD_FACTOR,
            "seed": SEED,
        },
        "topology": topology.as_dict(),
        "domain_outages": [
            {
                "domain": domain,
                "cycles": [
                    {"crash_fraction": crash, "recover_fraction": recover}
                    for crash, recover in cycles
                ],
            }
            for domain, cycles in DOMAIN_OUTAGES
        ],
        "retry_budget": RETRY_BUDGET,
        "scheduler": {
            "max_batch_size": MAX_BATCH_SIZE,
            "max_wait_seconds": MAX_WAIT_SECONDS,
        },
        "slo_seconds": round(slo_seconds, 6),
        "capacity_rps": round(capacity_rps, 3),
        "domain_oblivious": oblivious_entry,
        "domain_aware": aware_entry,
        "goodput_ratio": round(goodput_ratio, 3),
        "warm_standby_ablation": {
            "warmup_seconds": 0.0,
            "domain_oblivious": warm_oblivious,
            "domain_aware": warm_aware,
            "goodput_ratio": round(warm_ratio, 3),
        },
        "stress": {
            "num_requests": len(stress_trace),
            "num_fault_events": len(stress_faults.expanded_events),
            "num_domain_macros": len(stress_faults.domain_events),
            "offered": stress_goodput.offered,
            "served": stress_goodput.served,
            "shed": stress_goodput.shed,
            "failed": stress_goodput.failed,
            "goodput_rps": round(stress_goodput.goodput_rps, 3),
            "scaling_events": len(stress_report.scaling_timeline),
            "domain_outages": stress_outages,
            "conserved": conserved,
            "wall_clock_seconds": round(stress_seconds, 4),
        },
        "wall_clock_seconds": round(time.perf_counter() - started, 4),
    }
    document["gates"] = [
        {"name": "goodput_ratio", "value": document["goodput_ratio"],
         "floor": MIN_DOMAIN_GOODPUT_RATIO, "keep": DEFAULT_KEEP},
        {"name": "stress_conserved", "value": conserved, "floor": True},
        # A correlated generator quietly disabled would observe none.
        {"name": "stress_domain_outages", "value": stress_outages, "floor": 1},
    ]
    write_result(document, RESULT_PATH)
    return document


def test_failure_domains(benchmark):
    """Pytest-benchmark entry point with the placement acceptance gates."""
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
