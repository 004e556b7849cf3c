"""Chaos-sweep invariant harness for the fault-tolerant serving stack.

Every fault-layer PR so far pinned *specific* scenarios (one crash, one
drain, one retry).  This module sweeps *families* of adversarial schedules —
correlated whole-domain outages racing autoscaler drains, retry storms,
recover-at-the-same-instant edges — and asserts the stack's hard invariants
on every run:

1. **conservation** — exactly
   ``offered == served_full + served_degraded + shed + failed``, and the
   arrival source saw one terminal callback per request;
2. **engine-identity** — the reference and fast backends render
   byte-identical ``ClusterReport.as_dict()`` JSON;
3. **no-dead-dispatch** — no served request's service interval overlaps a
   dead interval of its shard, and nothing starts on a shard outside the
   autoscaler's active set (modulo fault-time standby substitution, which
   is excused only while an active-prefix shard is actually dead);
4. **retry-budget** — ``retried <= retry_budget * offered`` (retries are
   per-request), a zero budget never retries, and a crash-free schedule
   never fails or retries anything;
5. **lease-accounting** — the lease-tracked ``shard_seconds`` of an
   autoscaled run is bounded by ``min_shards * makespan`` from below and
   ``num_shards * makespan`` from above.

The sweep is fully deterministic: scenario ``i`` of ``run_chaos_sweep(seed)``
is always the same schedule (the generators are seeded, simulated time has
no wall clock), so a failure reproduces from the artifact alone — the
artifact embeds the generator provenance *and* the expanded schedule.

Run it directly::

    PYTHONPATH=src python -m repro.serving.chaos --examples 50 --seed 0 \
        --artifact chaos_failure.json

Exit status 1 and the artifact file mean an invariant was violated; the
pytest tier (``tests/test_chaos.py``) runs a smaller budget on every push
and the CI ``chaos`` job runs the full sweep.
"""

from __future__ import annotations

import argparse
import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.serving.cluster import (
    POLICY_LEAST_LOADED,
    POLICY_LOCALITY,
    ShardedServiceCluster,
)
from repro.serving.config import ServingConfig
from repro.serving.control import Autoscaler, DegradationPolicy, SLOPolicy
from repro.serving.faults import (
    FAULT_CRASH,
    FAULT_CRASH_DOMAIN,
    FAULT_RECOVER_DOMAIN,
    CorrelatedFaults,
    DomainFaultEvent,
    FaultSchedule,
    RandomFaults,
)
from repro.serving.requests import (
    OpenLoopArrivals,
    RequestTrace,
    TraceArrivals,
    merge_traces,
)
from repro.serving.scheduler import BatchScheduler
from repro.serving.topology import ClusterTopology
from repro.system.workload import WorkloadProfile

#: The five invariants, in check order (artifact ``invariant`` values).
INVARIANTS = (
    "conservation",
    "engine-identity",
    "no-dead-dispatch",
    "retry-budget",
    "lease-accounting",
)

#: Service template the sweep runs against (calibrated, deterministic).
CHAOS_SYSTEM = "DynPre"

#: Workload pool mirroring the property-test pool (kept local so the harness
#: is importable outside pytest).
CHAOS_WORKLOADS = (
    WorkloadProfile(name="wl-s", num_nodes=20_000, num_edges=150_000,
                    avg_degree=7.5, batch_size=500),
    WorkloadProfile(name="wl-m", num_nodes=80_000, num_edges=900_000,
                    avg_degree=11.25, batch_size=1500),
    WorkloadProfile(name="wl-u", num_nodes=40_000, num_edges=300_000,
                    avg_degree=7.5, batch_size=800, update_fraction=0.2),
)

#: Tenant weights of fair-batching scenarios (their trace has both tenants).
CHAOS_TENANT_WEIGHTS = {"gold": 2.0, "bronze": 1.0}

#: Locality scenarios spill past a short backlog.
CHAOS_LOCALITY_SPILL_SECONDS = 0.01


class ChaosInvariantError(AssertionError):
    """One chaos run violated a serving invariant.

    Attributes:
        invariant: which of :data:`INVARIANTS` failed.
        scenario: name of the offending scenario.
        artifact: JSON-serializable reproduction record (scenario
            parameters, generator provenance and the expanded schedule).
    """

    def __init__(self, invariant: str, scenario: str, message: str,
                 artifact: Dict[str, object]) -> None:
        super().__init__(f"[{scenario}] {invariant}: {message}")
        self.invariant = invariant
        self.scenario = scenario
        self.artifact = artifact


@dataclass(frozen=True)
class ChaosScenario:
    """One deterministic chaos run: a schedule plus its serving context."""

    name: str
    num_shards: int
    faults: FaultSchedule
    provenance: Dict[str, object]
    topology: Optional[ClusterTopology] = None
    trace_seed: int = 0
    num_requests: int = 60
    rate_rps: float = 400.0
    degradation: bool = False
    policy: str = POLICY_LEAST_LOADED
    fair: bool = False

    def as_dict(self) -> Dict[str, object]:
        """Reproduction record embedded in the failure artifact."""
        return {
            "name": self.name,
            "num_shards": self.num_shards,
            "trace_seed": self.trace_seed,
            "num_requests": self.num_requests,
            "rate_rps": self.rate_rps,
            "degradation": self.degradation,
            "policy": self.policy,
            "fair": self.fair,
            "topology": self.topology.as_dict() if self.topology else None,
            "provenance": self.provenance,
            "schedule": self.faults.as_dict(),
        }


class _CountingSource(TraceArrivals):
    """Trace replay tallying terminal callbacks for the conservation check."""

    def __init__(self, trace: RequestTrace) -> None:
        super().__init__(trace)
        self.completed = 0
        self.dropped = 0

    def on_complete(self, request, seconds):  # noqa: D102 - see TraceArrivals
        self.completed += 1
        super().on_complete(request, seconds)

    def on_shed(self, request, seconds):  # noqa: D102 - see TraceArrivals
        self.dropped += 1
        super().on_shed(request, seconds)


# ------------------------------------------------------- scenario generation
def _edge_scenarios(seed: int) -> List[ChaosScenario]:
    """Handcrafted adversarial edges the random sweep may miss."""
    topo4 = ClusterTopology.uniform(4, 2)
    topo6 = ClusterTopology.uniform(6, 3)
    scenarios = [
        # One domain recovers at the exact instant another crashes: the
        # alive set swaps wholesale at a single simulated timestamp.
        ChaosScenario(
            name="edge-recover-same-instant",
            num_shards=4,
            topology=topo4,
            faults=FaultSchedule(
                domain_events=(
                    DomainFaultEvent(0.02, "rack0", FAULT_CRASH_DOMAIN),
                    DomainFaultEvent(0.08, "rack0", FAULT_RECOVER_DOMAIN),
                    DomainFaultEvent(0.08, "rack1", FAULT_CRASH_DOMAIN),
                    DomainFaultEvent(0.14, "rack1", FAULT_RECOVER_DOMAIN),
                ),
                topology=topo4,
                retry_budget=2,
                retry_backoff_seconds=0.004,
            ),
            provenance={"generator": "handcrafted",
                        "name": "edge-recover-same-instant"},
            trace_seed=seed + 1,
        ),
        # A whole-rack outage landing mid-run, where the autoscaler has had
        # time to scale up and is draining back down as the outage hits.
        ChaosScenario(
            name="edge-outage-races-drain",
            num_shards=6,
            topology=topo6,
            faults=FaultSchedule(
                domain_events=(
                    DomainFaultEvent(0.05, "rack1", FAULT_CRASH_DOMAIN),
                    DomainFaultEvent(0.12, "rack1", FAULT_RECOVER_DOMAIN),
                    DomainFaultEvent(0.13, "rack2", FAULT_CRASH_DOMAIN),
                    DomainFaultEvent(0.2, "rack2", FAULT_RECOVER_DOMAIN),
                ),
                topology=topo6,
                retry_budget=3,
                retry_backoff_seconds=0.005,
            ),
            provenance={"generator": "handcrafted",
                        "name": "edge-outage-races-drain"},
            trace_seed=seed + 2,
            degradation=True,
        ),
        # Retry storm with a zero budget: every fault-doomed request must
        # fail immediately, never retry.
        ChaosScenario(
            name="edge-retry-storm-budget0",
            num_shards=4,
            topology=topo4,
            faults=FaultSchedule(
                domain_events=(
                    DomainFaultEvent(0.01, "rack0", FAULT_CRASH_DOMAIN),
                    DomainFaultEvent(0.03, "rack1", FAULT_CRASH_DOMAIN),
                    DomainFaultEvent(0.09, "rack0", FAULT_RECOVER_DOMAIN),
                    DomainFaultEvent(0.11, "rack1", FAULT_RECOVER_DOMAIN),
                ),
                topology=topo4,
                retry_budget=0,
            ),
            provenance={"generator": "handcrafted",
                        "name": "edge-retry-storm-budget0"},
            trace_seed=seed + 3,
        ),
        # Full-cluster blackout window with a generous retry budget: the
        # backoff ladder must carry everything across the outage.
        ChaosScenario(
            name="edge-whole-cluster-outage",
            num_shards=4,
            topology=topo4,
            faults=FaultSchedule(
                domain_events=(
                    DomainFaultEvent(0.02, "rack0", FAULT_CRASH_DOMAIN),
                    DomainFaultEvent(0.02, "rack1", FAULT_CRASH_DOMAIN),
                    DomainFaultEvent(0.06, "rack0", FAULT_RECOVER_DOMAIN),
                    DomainFaultEvent(0.06, "rack1", FAULT_RECOVER_DOMAIN),
                ),
                topology=topo4,
                retry_budget=3,
                retry_backoff_seconds=0.01,
            ),
            provenance={"generator": "handcrafted",
                        "name": "edge-whole-cluster-outage"},
            trace_seed=seed + 4,
            degradation=True,
        ),
    ]
    return scenarios


def _random_scenarios(count: int, seed: int) -> List[ChaosScenario]:
    """Seeded correlated-fault scenarios (scenario ``i`` is reproducible)."""
    scenarios: List[ChaosScenario] = []
    uptimes = (0.03, 0.06, 0.15)
    downtimes = (0.02, 0.04, 0.08)
    for i in range(count):
        num_shards = 6 if i % 2 == 0 else 4
        num_domains = 3 if i % 2 == 0 else 2
        topology = ClusterTopology.uniform(num_shards, num_domains)
        generator = RandomFaults(
            num_shards=num_shards,
            horizon_seconds=0.25,
            mean_uptime_seconds=uptimes[i % len(uptimes)],
            mean_downtime_seconds=downtimes[(i // 3) % len(downtimes)],
            slowdown_probability=0.5 if i % 3 == 0 else 0.0,
            slowdown_factor=2.0,
            retry_budget=i % 4,
            retry_backoff_seconds=0.003,
            seed=seed * 100_003 + i,
            topology=topology,
            correlated=CorrelatedFaults(
                mean_uptime_seconds=0.08 if i % 2 == 0 else 0.12,
                mean_downtime_seconds=0.03 if i % 4 < 2 else 0.05,
            ),
        )
        scenarios.append(
            ChaosScenario(
                name=f"random-{i:03d}",
                num_shards=num_shards,
                topology=topology,
                faults=generator.schedule(),
                provenance=generator.provenance(),
                trace_seed=seed * 7 + i,
                degradation=i % 2 == 1,
                # Every policy meets both shard counts, slowdowns and fair
                # batching on and off: every third block of four scenarios
                # runs locality.
                policy=POLICY_LOCALITY if (i // 4) % 3 == 2 else POLICY_LEAST_LOADED,
                fair=(i // 2) % 2 == 1,
            )
        )
    return scenarios


def chaos_scenarios(num_examples: int, seed: int = 0) -> List[ChaosScenario]:
    """The deterministic scenario list of one sweep (edges first)."""
    edges = _edge_scenarios(seed)
    if num_examples <= len(edges):
        return edges[:num_examples]
    return edges + _random_scenarios(num_examples - len(edges), seed)


# ------------------------------------------------------------ one chaos run
def _dead_intervals(schedule: FaultSchedule,
                    num_shards: int) -> List[List[Tuple[float, float]]]:
    """Per-shard half-open ``[crash, recover)`` intervals (inf when open)."""
    intervals: List[List[Tuple[float, float]]] = [[] for _ in range(num_shards)]
    down_at: Dict[int, float] = {}
    for event in schedule.expanded_events:
        if event.kind == FAULT_CRASH:
            down_at[event.shard_id] = event.seconds
        elif event.shard_id in down_at:
            intervals[event.shard_id].append(
                (down_at.pop(event.shard_id), event.seconds)
            )
    for shard_id, crash_at in down_at.items():
        intervals[shard_id].append((crash_at, math.inf))
    return intervals


#: Tolerance for float drift when reconstructing service intervals from a
#: report's delay decomposition (sums/differences of exact event instants).
_FLOAT_SLACK = 1e-9


def _dead_during(intervals: Sequence[Tuple[float, float]],
                 lo: float, hi: float) -> bool:
    """Whether a shard with these dead intervals is dead anywhere in [lo, hi]."""
    return any(crash <= hi and lo < recover for crash, recover in intervals)


def _active_counts_at(timeline, instant: float, default: int) -> Tuple[int, int]:
    """Active shard counts (just before, at-or-after) ``instant``.

    The scaling timeline is a step function; boundary instants are checked
    against both sides so a batch dispatched at the exact scale event
    timestamp is not misflagged.
    """
    if not timeline:
        return default, default
    before = timeline[0].active_shards
    at = timeline[0].active_shards
    for event in timeline:
        if event.seconds < instant:
            before = event.active_shards
        if event.seconds <= instant:
            at = event.active_shards
        else:
            break
    return before, at


def _check_run(scenario: ChaosScenario, report, source: _CountingSource,
               min_shards: int) -> None:
    """Assert invariants 1, 3, 4 and 5 on one engine's report."""
    artifact = scenario.as_dict()
    goodput = report.goodput

    # 1. conservation ------------------------------------------------------
    served_full = goodput.served - goodput.served_degraded
    total = served_full + goodput.served_degraded + goodput.shed + goodput.failed
    if goodput.offered != scenario.num_requests or goodput.offered != total:
        raise ChaosInvariantError(
            "conservation", scenario.name,
            f"offered={goodput.offered} (trace {scenario.num_requests}) != "
            f"served_full={served_full} + degraded={goodput.served_degraded} "
            f"+ shed={goodput.shed} + failed={goodput.failed}",
            artifact,
        )
    if source.completed != goodput.served or source.dropped != (
        goodput.shed + goodput.failed
    ):
        raise ChaosInvariantError(
            "conservation", scenario.name,
            f"source callbacks disagree: completed={source.completed} vs "
            f"served={goodput.served}, dropped={source.dropped} vs "
            f"shed+failed={goodput.shed + goodput.failed}",
            artifact,
        )

    # 3. no dispatch to dead or deactivated shards -------------------------
    dead = _dead_intervals(scenario.faults, scenario.num_shards)
    if scenario.topology is not None:
        order = scenario.topology.activation_order()
    else:
        order = tuple(range(scenario.num_shards))
    position = {shard: index for index, shard in enumerate(order)}
    timeline = report.scaling_timeline
    for record in report.served:
        ready = record.request.arrival_seconds + record.batching_delay
        # Rebuilt forward from ``ready`` (``dispatch_delay >= 0``), so a
        # batch that starts the instant it is ready keeps ``start == ready``;
        # ``finish - service`` can land an ulp below ``ready`` and hide a
        # prefix crash at that very instant from the substitution check.
        start = ready + record.dispatch_delay
        finish = start + record.service_seconds
        for crash, recover in dead[record.shard_id]:
            # _FLOAT_SLACK absorbs reconstruction drift: ``start`` can land
            # ~1e-17 below a recover instant the engine dispatched at
            # exactly.
            if start < recover - _FLOAT_SLACK and crash < finish - _FLOAT_SLACK:
                raise ChaosInvariantError(
                    "no-dead-dispatch", scenario.name,
                    f"request {record.request.request_id} served on shard "
                    f"{record.shard_id} over [{start:.6f}, {finish:.6f}) while "
                    f"the shard was dead over [{crash:.6f}, {recover:.6f})",
                    artifact,
                )
        limit = max(
            *_active_counts_at(timeline, ready, scenario.num_shards),
            *_active_counts_at(timeline, start, scenario.num_shards),
        )
        if position[record.shard_id] >= limit:
            # Fault-time standby substitution legitimately reaches past the
            # active prefix — but only while a prefix shard is actually dead.
            substitution = any(
                _dead_during(dead[shard], ready, start)
                for shard in order[:limit]
            )
            if not substitution:
                raise ChaosInvariantError(
                    "no-dead-dispatch", scenario.name,
                    f"request {record.request.request_id} started on shard "
                    f"{record.shard_id} (activation position "
                    f"{position[record.shard_id]}) with only {limit} shards "
                    f"active and no dead prefix shard to substitute for",
                    artifact,
                )

    # 4. retry budgets ------------------------------------------------------
    faults = report.faults
    budget = scenario.faults.retry_budget
    if faults.retried > budget * goodput.offered:
        raise ChaosInvariantError(
            "retry-budget", scenario.name,
            f"retried={faults.retried} exceeds budget {budget} x "
            f"offered={goodput.offered}",
            artifact,
        )
    if budget == 0 and faults.retried != 0:
        raise ChaosInvariantError(
            "retry-budget", scenario.name,
            f"zero budget but retried={faults.retried}", artifact,
        )
    crash_free = not any(
        event.kind == FAULT_CRASH for event in scenario.faults.expanded_events
    )
    if crash_free and (faults.failed or faults.retried):
        raise ChaosInvariantError(
            "retry-budget", scenario.name,
            f"crash-free schedule failed={faults.failed} retried={faults.retried}",
            artifact,
        )

    # 5. lease-based shard_seconds accounting ------------------------------
    if report.shard_seconds is not None and goodput.served > 0:
        makespan = report.makespan_seconds
        slack = 1e-6 + 1e-9 * scenario.num_shards * makespan
        low = min_shards * makespan - slack
        high = scenario.num_shards * makespan + slack
        if not low <= report.shard_seconds <= high:
            raise ChaosInvariantError(
                "lease-accounting", scenario.name,
                f"shard_seconds={report.shard_seconds:.9f} outside "
                f"[{low:.9f}, {high:.9f}] (makespan={makespan:.9f}, "
                f"min_shards={min_shards}, num_shards={scenario.num_shards})",
                artifact,
            )


def _scenario_trace(scenario: ChaosScenario) -> RequestTrace:
    """The scenario's arrivals: one tenant, or one stream per fair tenant."""
    if not scenario.fair:
        return OpenLoopArrivals(
            list(CHAOS_WORKLOADS), rate_rps=scenario.rate_rps,
            seed=scenario.trace_seed,
        ).trace(scenario.num_requests)
    tenants = sorted(CHAOS_TENANT_WEIGHTS)
    streams = []
    for index, tenant in enumerate(tenants):
        count = scenario.num_requests // len(tenants)
        if index == 0:
            count += scenario.num_requests % len(tenants)
        streams.append(
            OpenLoopArrivals(
                list(CHAOS_WORKLOADS), rate_rps=scenario.rate_rps / len(tenants),
                seed=scenario.trace_seed + index, tenant=tenant,
            ).trace(count)
        )
    return merge_traces(streams)


def run_scenario(services, scenario: ChaosScenario) -> Dict[str, object]:
    """Run one scenario through both engines and assert all invariants."""
    trace = _scenario_trace(scenario)
    slo = SLOPolicy(default_slo_seconds=0.5)
    min_shards = 2
    renders: Dict[str, str] = {}
    reports = {}
    locality = scenario.policy == POLICY_LOCALITY
    for engine in ("reference", "fast"):
        cluster = ShardedServiceCluster(
            services[CHAOS_SYSTEM], num_shards=scenario.num_shards,
            engine=engine,
            topology=scenario.topology,
            scheduler=BatchScheduler(
                max_batch_size=3, max_wait_seconds=0.003,
                tenant_weights=CHAOS_TENANT_WEIGHTS if scenario.fair else None,
            ),
            policy=scenario.policy,
            locality_spill_seconds=(
                CHAOS_LOCALITY_SPILL_SECONDS if locality else float("inf")
            ),
        )
        source = _CountingSource(trace)
        config = ServingConfig(
            slo=slo,
            admit=True,
            degradation=DegradationPolicy() if scenario.degradation else None,
            autoscaler=Autoscaler(
                min_shards=min_shards, max_shards=scenario.num_shards,
                scale_up_depth=3.0, scale_down_depth=0.5,
                hysteresis_observations=2,
            ),
            faults=scenario.faults,
        )
        report = cluster.serve_online(source, config=config)
        renders[engine] = json.dumps(report.as_dict(), sort_keys=True)
        reports[engine] = report
        _check_run(scenario, report, source, min_shards)

    # 2. engine byte-identity ----------------------------------------------
    if renders["reference"] != renders["fast"]:
        raise ChaosInvariantError(
            "engine-identity", scenario.name,
            "reference and fast reports differ byte-wise", scenario.as_dict(),
        )

    goodput = reports["fast"].goodput
    faults = reports["fast"].faults
    domains = faults.domains or ()
    return {
        "scenario": scenario.name,
        "offered": goodput.offered,
        "served": goodput.served,
        "served_degraded": goodput.served_degraded,
        "shed": goodput.shed,
        "failed": goodput.failed,
        "retried": faults.retried,
        "migrated": faults.migrated,
        "domain_outages": sum(stats.outages for stats in domains),
    }


def run_chaos_sweep(
    num_examples: int = 50,
    seed: int = 0,
    services=None,
    artifact_path: Optional[str] = None,
    verbose: bool = False,
) -> Dict[str, object]:
    """Sweep ``num_examples`` deterministic schedules; raise on violation.

    Returns a summary dict (per-scenario rows plus totals).  On an invariant
    violation the reproduction artifact is written to ``artifact_path`` (when
    given) before :class:`ChaosInvariantError` propagates.
    """
    if services is None:
        from repro.system.service import build_services

        services = build_services()
    scenarios = chaos_scenarios(num_examples, seed)
    rows: List[Dict[str, object]] = []
    try:
        for scenario in scenarios:
            row = run_scenario(services, scenario)
            rows.append(row)
            if verbose:
                print(
                    f"  {row['scenario']}: offered={row['offered']} "
                    f"served={row['served']} shed={row['shed']} "
                    f"failed={row['failed']} retried={row['retried']} "
                    f"domain_outages={row['domain_outages']}"
                )
    except ChaosInvariantError as error:
        if artifact_path is not None:
            payload = dict(error.artifact)
            payload["invariant"] = error.invariant
            payload["message"] = str(error)
            with open(artifact_path, "w") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
        raise
    totals = {
        key: sum(int(row[key]) for row in rows)
        for key in ("offered", "served", "served_degraded", "shed", "failed",
                    "retried", "migrated", "domain_outages")
    }
    return {
        "examples": len(rows),
        "seed": seed,
        "invariants": list(INVARIANTS),
        "totals": totals,
        "runs": rows,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point: ``python -m repro.serving.chaos``."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--examples", type=int, default=50,
                        help="number of seeded schedules to sweep")
    parser.add_argument("--seed", type=int, default=0,
                        help="sweep seed (scenario i is a pure function of it)")
    parser.add_argument("--artifact", default="chaos_failure.json",
                        help="where to write the reproduction artifact on "
                             "an invariant violation")
    parser.add_argument("--verbose", action="store_true",
                        help="print one line per scenario")
    args = parser.parse_args(argv)
    try:
        summary = run_chaos_sweep(
            num_examples=args.examples, seed=args.seed,
            artifact_path=args.artifact, verbose=args.verbose,
        )
    except ChaosInvariantError as error:
        print(f"CHAOS INVARIANT VIOLATED: {error}")
        print(f"reproduction artifact written to {args.artifact}")
        return 1
    totals = summary["totals"]
    print(
        f"chaos sweep passed: {summary['examples']} schedules, "
        f"{totals['offered']} requests offered, {totals['served']} served "
        f"({totals['served_degraded']} degraded), {totals['shed']} shed, "
        f"{totals['failed']} failed, {totals['retried']} retries, "
        f"{totals['domain_outages']} whole-domain outages; all "
        f"{len(INVARIANTS)} invariants held with byte-identical reports."
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
