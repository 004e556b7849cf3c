"""Failure-domain topology, correlated faults and domain-aware serving.

Covers the correlated-failure layer end to end:

* :class:`ClusterTopology` — partition validation, activation orders,
  dict round-trips.
* Domain fault macros — ``crash_domain`` / ``recover_domain`` expansion
  with order-stable tie-breaking, collision rejection, re-expansion under
  ``dataclasses.replace``.
* :class:`RandomFaults(correlated=...)` — seeded whole-domain outages that
  leave the independent per-shard stream bit-identical, and the
  :meth:`provenance` dict that rebuilds the exact schedule.
* Serving integration — per-domain outage reporting in both engines,
  topology-spread activation across domains, topology via
  ``ServingConfig`` overrides, the ``no_degrade`` tenant buy-out and
  per-tenant ``degraded_utility`` floors.
* Late recovery — a recover past ``horizon_seconds`` (and past an
  autoscaler scale-down/scale-up cycle) is still applied in both engines.
"""

import dataclasses
import json

import pytest
from conftest import WORKLOAD_POOL, make_profile
from hypothesis import given, settings, strategies as st

from repro.serving import (
    Autoscaler,
    BatchScheduler,
    ClusterTopology,
    CorrelatedFaults,
    DegradationPolicy,
    DomainFaultEvent,
    FAULT_CRASH,
    FAULT_CRASH_DOMAIN,
    FAULT_RECOVER,
    FAULT_RECOVER_DOMAIN,
    FaultEvent,
    FaultSchedule,
    OpenLoopArrivals,
    QUALITY_DEGRADED,
    RandomFaults,
    RequestTrace,
    ServingConfig,
    ShardedServiceCluster,
    SLOPolicy,
    TenantQuota,
    TraceArrivals,
    merge_traces,
)


def _render(report):
    return json.dumps(report.as_dict(), sort_keys=True)


def _cluster(services, engine="fast", num_shards=4, **kwargs):
    kwargs.setdefault("scheduler", BatchScheduler(max_batch_size=3, max_wait_seconds=0.003))
    return ShardedServiceCluster(
        services["DynPre"], num_shards=num_shards, engine=engine, **kwargs
    )


def _trace(seed, num_requests=40, rate_rps=300.0):
    return OpenLoopArrivals(WORKLOAD_POOL, rate_rps=rate_rps, seed=seed).trace(num_requests)


# ----------------------------------------------------------------- topology
def test_uniform_topology_partitions_with_remainder_up_front():
    topo = ClusterTopology.uniform(7, 3)
    assert topo.domains == {"rack0": (0, 1, 2), "rack1": (3, 4), "rack2": (5, 6)}
    assert topo.num_shards == 7
    assert topo.num_domains == 3
    assert topo.domain_names == ("rack0", "rack1", "rack2")
    assert topo.domain_of(4) == "rack1"
    assert topo.shards_in("rack2") == (5, 6)
    topo.validate_for(7)


def test_topology_validation_rejects_bad_partitions():
    with pytest.raises(ValueError, match="at least one failure domain"):
        ClusterTopology({})
    with pytest.raises(ValueError, match="appears in domains"):
        ClusterTopology({"a": (0, 1), "b": (1, 2)})
    with pytest.raises(ValueError, match="partition range"):
        ClusterTopology({"a": (0,), "b": (2,)})
    with pytest.raises(ValueError, match="no member shards"):
        ClusterTopology({"a": (0,), "b": ()})
    with pytest.raises(ValueError, match="non-empty string"):
        ClusterTopology({"": (0,)})
    with pytest.raises(ValueError, match="covers 2 shards"):
        ClusterTopology.uniform(2, 2).validate_for(3)
    with pytest.raises(ValueError, match="unknown failure domain"):
        ClusterTopology.uniform(2, 2).shards_in("rack9")
    with pytest.raises(ValueError, match="outside this topology"):
        ClusterTopology.uniform(2, 2).domain_of(5)
    with pytest.raises(ValueError, match="num_domains"):
        ClusterTopology.uniform(2, 3)


def test_activation_order_spread_round_robins_across_domains():
    topo = ClusterTopology.uniform(6, 3)
    assert topo.activation_order() == (0, 2, 4, 1, 3, 5)
    # Uneven domains: exhausted pools are skipped, every shard appears once.
    uneven = ClusterTopology({"big": (0, 1, 2), "small": (3,)})
    assert uneven.activation_order() == (0, 3, 1, 2)


def test_topology_dict_round_trip():
    topo = ClusterTopology({"zoneB": (2, 3), "zoneA": (0, 1)})
    clone = ClusterTopology.from_dict(topo.as_dict())
    assert clone == topo
    assert clone.domain_names == topo.domain_names  # declaration order survives


# ------------------------------------------------------------ domain macros
def test_domain_events_expand_with_order_stable_tie_breaking():
    topo = ClusterTopology({"a": (0, 2), "b": (1, 3)})
    schedule = FaultSchedule(
        events=(FaultEvent(0.30, 0, FAULT_CRASH), FaultEvent(0.40, 0, FAULT_RECOVER)),
        domain_events=(
            DomainFaultEvent(0.10, "b", FAULT_CRASH_DOMAIN),
            DomainFaultEvent(0.10, "a", FAULT_CRASH_DOMAIN),
            DomainFaultEvent(0.20, "a", FAULT_RECOVER_DOMAIN),
            DomainFaultEvent(0.20, "b", FAULT_RECOVER_DOMAIN),
        ),
        topology=topo,
    )
    expanded = schedule.expanded_events
    # Two domains failing at the same instant expand to per-shard events
    # applied in deterministic shard order.
    assert [(e.seconds, e.shard_id, e.kind) for e in expanded[:4]] == [
        (0.10, 0, FAULT_CRASH),
        (0.10, 1, FAULT_CRASH),
        (0.10, 2, FAULT_CRASH),
        (0.10, 3, FAULT_CRASH),
    ]
    assert [e.kind for e in expanded[4:8]] == [FAULT_RECOVER] * 4
    # Independent events survive the merge, in timestamp order.
    assert (expanded[8].seconds, expanded[8].shard_id) == (0.30, 0)
    # replace() re-expands from the macros instead of double-applying them.
    clone = dataclasses.replace(schedule, retry_budget=1)
    assert clone.expanded_events == expanded
    assert clone.retry_budget == 1


def test_domain_events_validation():
    topo = ClusterTopology.uniform(4, 2)
    with pytest.raises(ValueError, match="require a topology"):
        FaultSchedule(domain_events=(DomainFaultEvent(0.1, "rack0", FAULT_CRASH_DOMAIN),))
    with pytest.raises(ValueError, match="unknown failure domain"):
        FaultSchedule(
            domain_events=(DomainFaultEvent(0.1, "rack9", FAULT_CRASH_DOMAIN),),
            topology=topo,
        )
    with pytest.raises(ValueError, match="unknown domain fault kind"):
        DomainFaultEvent(0.1, "rack0", FAULT_CRASH)
    # An independent event colliding with a member expansion at the same
    # instant would apply in ambiguous order — rejected up front.
    with pytest.raises(ValueError, match="order would be ambiguous"):
        FaultSchedule(
            events=(FaultEvent(0.1, 2, FAULT_CRASH),),
            domain_events=(
                DomainFaultEvent(0.1, "rack1", FAULT_CRASH_DOMAIN),
                DomainFaultEvent(0.2, "rack1", FAULT_RECOVER_DOMAIN),
            ),
            topology=topo,
        )
    with pytest.raises(ValueError, match="covers 4 shards"):
        FaultSchedule(
            domain_events=(
                DomainFaultEvent(0.1, "rack1", FAULT_CRASH_DOMAIN),
                DomainFaultEvent(0.2, "rack1", FAULT_RECOVER_DOMAIN),
            ),
            topology=topo,
        ).validate_for(2)


# -------------------------------------------------------- correlated faults
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_correlated_outages_leave_independent_stream_bit_identical(seed):
    """Enabling ``correlated=`` draws domain outages from a separate stream:
    every surviving independent event is byte-for-byte one the uncorrelated
    run generated (colliding cycles are dropped, never re-rolled)."""
    topo = ClusterTopology.uniform(6, 3)
    kwargs = dict(
        num_shards=6,
        horizon_seconds=0.4,
        mean_uptime_seconds=0.1,
        mean_downtime_seconds=0.05,
        slowdown_probability=0.5,
        seed=seed,
        topology=topo,
    )
    baseline = RandomFaults(**kwargs).schedule()
    correlated = RandomFaults(
        **kwargs,
        correlated=CorrelatedFaults(mean_uptime_seconds=0.1, mean_downtime_seconds=0.04),
    ).schedule()
    assert set(correlated.events) <= set(baseline.events)
    assert baseline.domain_events == ()


def test_correlated_faults_deterministic_and_provenance_round_trips():
    topo = ClusterTopology.uniform(4, 2)
    generator = RandomFaults(
        num_shards=4,
        horizon_seconds=0.5,
        mean_uptime_seconds=0.08,
        mean_downtime_seconds=0.04,
        seed=7,
        topology=topo,
        correlated=CorrelatedFaults(mean_uptime_seconds=0.1, mean_downtime_seconds=0.05),
    )
    first = generator.schedule()
    assert first == generator.schedule()  # same seed, same schedule
    assert first.domain_events  # the process actually fires within horizon
    provenance = generator.provenance()
    # JSON round-trip carries every generation parameter.
    decoded = json.loads(json.dumps(provenance, sort_keys=True))
    rebuilt = RandomFaults(
        num_shards=decoded["num_shards"],
        horizon_seconds=decoded["horizon_seconds"],
        mean_uptime_seconds=decoded["mean_uptime_seconds"],
        mean_downtime_seconds=decoded["mean_downtime_seconds"],
        slowdown_probability=decoded["slowdown_probability"],
        slowdown_factor=decoded["slowdown_factor"],
        retry_budget=decoded["retry_budget"],
        retry_backoff_seconds=decoded["retry_backoff_seconds"],
        seed=decoded["seed"],
        topology=ClusterTopology.from_dict(decoded["topology"]),
        correlated=CorrelatedFaults(**decoded["correlated"]),
    )
    assert rebuilt.schedule() == first
    with pytest.raises(ValueError, match="require a topology"):
        RandomFaults(
            num_shards=2,
            horizon_seconds=0.1,
            mean_uptime_seconds=0.1,
            mean_downtime_seconds=0.1,
            correlated=CorrelatedFaults(0.1, 0.1),
        )


# -------------------------------------------------------- serving integration
def test_domain_outages_reported_identically_by_both_engines(services):
    topo = ClusterTopology.uniform(4, 2)
    faults = FaultSchedule(
        domain_events=(
            DomainFaultEvent(0.02, "rack1", FAULT_CRASH_DOMAIN),
            DomainFaultEvent(0.05, "rack1", FAULT_RECOVER_DOMAIN),
        ),
        topology=topo,
        retry_budget=2,
        retry_backoff_seconds=0.002,
    )
    trace = _trace(3)
    reports = {
        engine: _cluster(services, engine, topology=topo).serve_trace(
            trace, config=ServingConfig(faults=faults)
        )
        for engine in ("reference", "fast")
    }
    assert _render(reports["reference"]) == _render(reports["fast"])
    stats = reports["fast"].faults
    assert stats.domains is not None
    by_name = {d.domain: d for d in stats.domains}
    assert set(by_name) == {"rack0", "rack1"}
    assert by_name["rack1"].outages == 1
    assert by_name["rack1"].outage_seconds > 0
    assert by_name["rack1"].downtime_seconds >= by_name["rack1"].outage_seconds
    assert by_name["rack0"].outages == 0
    # The outage is recorded as one down/up window of rack1.
    ((down, up),) = by_name["rack1"].windows
    assert up - down == by_name["rack1"].outage_seconds
    assert not by_name["rack0"].windows
    # Without a topology the section stays absent (pre-domain report shape).
    bare = _cluster(services).serve_trace(
        trace,
        config=ServingConfig(
            faults=dataclasses.replace(faults, domain_events=(), topology=None)
        ),
    )
    assert bare.faults.domains is None


def test_spread_placement_activates_across_domains(services):
    """With a topology a 2-shard active prefix lands one shard per rack;
    without one it takes shards 0 and 1, both in rack0."""
    topo = ClusterTopology.uniform(4, 2)
    trace = _trace(5)
    autoscaler = Autoscaler(
        min_shards=2, max_shards=2, scale_up_depth=1e9, hysteresis_observations=3
    )
    config = ServingConfig(autoscaler=autoscaler)
    spread = _cluster(services, topology=topo).serve_online(
        TraceArrivals(trace), config=config
    )
    assert spread.shard_requests[0] > 0 and spread.shard_requests[2] > 0
    assert spread.shard_requests[1] == 0 and spread.shard_requests[3] == 0
    dense = _cluster(services).serve_online(TraceArrivals(trace), config=config)
    assert dense.shard_requests[0] > 0 and dense.shard_requests[1] > 0
    assert dense.shard_requests[2] == 0 and dense.shard_requests[3] == 0


# --------------------------------------------------- tenant degraded buy-out
def _two_tenant_degraded_setup(services):
    """An operating point where every admitted request degrades: the SLO sits
    between the degraded and full-quality costs (see
    test_control_properties.test_degraded_tier_admits_instead_of_shedding)."""
    w = make_profile()
    svc = services["CPU"]
    degradation = DegradationPolicy(k_factor=0.3, layer_drop=1)
    full_cost = svc.estimate_service_seconds(w)
    degraded_cost = svc.estimate_service_seconds(degradation.apply(w))
    assert degraded_cost < full_cost
    slo_seconds = (degraded_cost + full_cost) / 2.0
    rate = 0.01 / full_cost
    trace = merge_traces(
        [
            OpenLoopArrivals([w], rate_rps=rate, seed=3, tenant="buyout").trace(5),
            OpenLoopArrivals([w], rate_rps=rate, seed=4, tenant="flex").trace(5),
        ]
    )
    return svc, degradation, slo_seconds, trace


def test_no_degrade_tenant_is_never_served_degraded(services):
    svc, degradation, slo_seconds, trace = _two_tenant_degraded_setup(services)
    slo = SLOPolicy(
        default_slo_seconds=slo_seconds,
        per_tenant={"buyout": TenantQuota(no_degrade=True)},
    )
    config = ServingConfig(slo=slo, admit=True, degradation=degradation)
    reports = {}
    for engine in ("reference", "fast"):
        cluster = ShardedServiceCluster(
            svc, num_shards=1, engine=engine, scheduler=BatchScheduler(max_batch_size=1)
        )
        reports[engine] = cluster.serve_online(TraceArrivals(trace), config=config)
    assert _render(reports["reference"]) == _render(reports["fast"])
    tenants = reports["fast"].tenant_stats
    # The buy-out tenant is shed rather than downgraded; the flexible tenant
    # rides the degraded tier on the same cluster and policy.
    assert tenants["buyout"].served_degraded == 0
    assert tenants["buyout"].shed == tenants["buyout"].offered == 5
    assert tenants["flex"].served_degraded == tenants["flex"].served == 5
    assert tenants["flex"].shed == 0
    assert all(
        s.request.tenant == "flex" and s.request.workload.quality == QUALITY_DEGRADED
        for s in reports["fast"].served
    )


def test_per_tenant_degraded_utility_floor(services):
    svc, degradation, slo_seconds, trace = _two_tenant_degraded_setup(services)
    assert degradation.utility_for(None) == degradation.degraded_utility
    assert degradation.utility_for(TenantQuota()) == degradation.degraded_utility
    floored = TenantQuota(degraded_utility=0.9)
    assert degradation.utility_for(floored) == 0.9
    # The floor never scores *below* the policy-wide knob.
    assert degradation.utility_for(TenantQuota(degraded_utility=0.1)) == (
        degradation.degraded_utility
    )
    with pytest.raises(ValueError, match="degraded_utility"):
        TenantQuota(degraded_utility=1.5)

    slo = SLOPolicy(default_slo_seconds=slo_seconds, per_tenant={"buyout": floored})
    cluster = ShardedServiceCluster(
        svc, num_shards=1, scheduler=BatchScheduler(max_batch_size=1)
    )
    report = cluster.serve_online(
        TraceArrivals(trace),
        config=ServingConfig(slo=slo, admit=True, degradation=degradation),
    )
    weighted = report.tenant_weighted_goodput(degradation)
    stats = report.tenant_stats
    makespan = report.makespan_seconds
    # Both tenants serve fully degraded here; the floored tenant's degraded
    # completions are valued at 0.9 instead of the policy-wide 0.5.
    for tenant, utility in (("buyout", 0.9), ("flex", degradation.degraded_utility)):
        expected = (
            stats[tenant].slo_met_full + utility * stats[tenant].slo_met_degraded
        ) / makespan
        assert weighted[tenant] == pytest.approx(expected)
    if stats["buyout"].slo_met_degraded == stats["flex"].slo_met_degraded > 0:
        assert weighted["buyout"] > weighted["flex"]


# ------------------------------------------------------------- late recovery
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_recover_past_horizon_is_applied_in_both_engines(services, seed):
    """Outages are always closed: a recover generated *past*
    ``horizon_seconds`` still lands in the schedule and both engines apply
    it — no shard stays dead forever and the reports stay byte-identical."""
    generator = RandomFaults(
        num_shards=3,
        horizon_seconds=0.05,
        mean_uptime_seconds=0.03,
        mean_downtime_seconds=0.4,  # recovery almost surely past the horizon
        retry_budget=2,
        retry_backoff_seconds=0.002,
        seed=seed,
    )
    schedule = generator.schedule()
    crashes = [e for e in schedule.events if e.kind == FAULT_CRASH]
    recovers = [e for e in schedule.events if e.kind == FAULT_RECOVER]
    assert len(crashes) == len(recovers)  # every outage closed
    for crash in crashes:
        assert any(
            r.shard_id == crash.shard_id and r.seconds > crash.seconds for r in recovers
        )
    trace = _trace(seed, num_requests=30)
    reports = {
        engine: _cluster(services, engine, num_shards=3).serve_trace(
            trace, config=ServingConfig(faults=schedule)
        )
        for engine in ("reference", "fast")
    }
    assert _render(reports["reference"]) == _render(reports["fast"])
    goodput = reports["fast"].goodput
    assert goodput.offered == goodput.served + goodput.shed + goodput.failed


def test_late_recovery_survives_scale_down_and_up_cycle(services):
    """A shard that crashes early and recovers long after the horizon is
    usable again even when the autoscaler scaled the cluster down (trough)
    and back up (second wave) across the outage — in both engines."""
    wave1 = OpenLoopArrivals(WORKLOAD_POOL, rate_rps=500.0, seed=11).trace(30)
    shifted = [
        dataclasses.replace(
            r, request_id=len(wave1) + i, arrival_seconds=r.arrival_seconds + 0.6
        )
        for i, r in enumerate(
            OpenLoopArrivals(WORKLOAD_POOL, rate_rps=500.0, seed=12).trace(30)
        )
    ]
    trace = RequestTrace(list(wave1) + shifted)
    faults = FaultSchedule(
        events=(
            FaultEvent(0.005, 2, FAULT_CRASH),
            FaultEvent(0.45, 2, FAULT_RECOVER),  # past wave 1 and the trough
        ),
        retry_budget=2,
        retry_backoff_seconds=0.002,
    )
    autoscaler = Autoscaler(
        min_shards=1,
        max_shards=3,
        scale_up_depth=2.0,
        scale_down_depth=0.5,
        hysteresis_observations=2,
    )
    reports = {}
    for engine in ("reference", "fast"):
        reports[engine] = _cluster(services, engine, num_shards=3).serve_online(
            TraceArrivals(trace),
            config=ServingConfig(autoscaler=autoscaler, faults=faults),
        )
    assert _render(reports["reference"]) == _render(reports["fast"])
    report = reports["fast"]
    goodput = report.goodput
    assert goodput.offered == len(trace)
    assert goodput.offered == goodput.served + goodput.shed + goodput.failed
    # The trough actually scaled down and wave 2 scaled back up.
    counts = [event.active_shards for event in report.scaling_timeline]
    assert counts and min(counts) < 3
    trough = counts.index(min(counts))
    assert max(counts[trough:]) > min(counts)
    # The recovered shard serves wave-2 work: some request starts after the
    # recover instant on shard 2.
    recovered_starts = [
        s.finish_seconds - s.service_seconds
        for s in report.served
        if s.shard_id == 2
    ]
    assert any(start >= 0.45 for start in recovered_starts)
    assert not any(0.005 < start < 0.45 for start in recovered_starts)
