"""Property-based tests of the multi-tenant fairness subsystem.

Invariants under test (see ISSUE/DESIGN "Multi-tenancy & traffic models"):

* per-tenant conservation: for every tenant, shed + served == offered, and
  the tenant sections sum to the report's global accounting;
* quota conservation: a tenant operating within its guaranteed rate is
  never shed, however tight the SLO — the guaranteed token bucket admits
  unconditionally (the operator keeps the sum of guarantees within
  capacity, like any reservation scheme);
* weighted shedding: under sustained overload with no excess budget,
  per-tenant shed counts are proportional to each tenant's excess over its
  guarantee (not arrival order), and a shared excess budget is split
  between tenants in proportion to their quota weights;
* hard rate limits shed above the cap even on an idle cluster;
* batching-aware admission strictly increases admitted goodput on a
  mergeable trace (the ROADMAP carry-over);
* weighted-fair batching keeps a light tenant from queueing behind a heavy
  tenant's burst of batch-compatible requests.

Everything here runs the default fast engine; the byte-identity of the two
engines under tenancy is enforced separately in test_engine_equivalence.
"""

import pytest
from conftest import TENANTS, WORKLOAD_POOL, make_bursty_tenant_trace, make_profile
from hypothesis import given, settings, strategies as st

from repro.serving import (
    BatchScheduler,
    InferenceRequest,
    OpenLoopArrivals,
    RequestTrace,
    ServingConfig,
    ShardedServiceCluster,
    SLOPolicy,
    TenantQuota,
    TraceArrivals,
    merge_traces,
)
from repro.serving.control import MAX_BURST_TOKENS


def _serve(services, trace, slo, name="CPU", num_shards=2, scheduler=None,
           batch_aware=False):
    cluster = ShardedServiceCluster(
        services[name],
        num_shards=num_shards,
        scheduler=scheduler or BatchScheduler(max_batch_size=2, max_wait_seconds=0.002),
    )
    return cluster.serve_online(
        TraceArrivals(trace),
        config=ServingConfig(slo=slo, admit=True, batch_aware=batch_aware),
    )


def _uniform_tenant_trace(rates, num_per_tenant, workload=None, seed=0):
    """One uniform-rate open-loop stream per tenant (deterministic gaps)."""
    workload = workload or make_profile()
    streams = [
        OpenLoopArrivals(
            [workload], rate_rps=rate, process="uniform", seed=seed + i,
            tenant=tenant,
        )
        for i, (tenant, rate) in enumerate(sorted(rates.items()))
    ]
    return merge_traces([stream.trace(num_per_tenant) for stream in streams])


# ------------------------------------------------------------- conservation
@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    num_per_tenant=st.integers(min_value=3, max_value=20),
    peak=st.sampled_from([100.0, 800.0, 3000.0]),
    slo_ms=st.sampled_from([20.0, 100.0, 500.0]),
    guaranteed=st.sampled_from([0.0, 10.0, 50.0]),
)
def test_per_tenant_conservation(services, seed, num_per_tenant, peak, slo_ms,
                                 guaranteed):
    """shed + served == offered per tenant, and tenants sum to the totals."""
    trace = make_bursty_tenant_trace(
        WORKLOAD_POOL, num_per_tenant=num_per_tenant, peak_rate_rps=peak, seed=seed
    )
    slo = SLOPolicy(
        default_slo_seconds=slo_ms * 1e-3,
        per_tenant={t: TenantQuota(guaranteed_rps=guaranteed) for t in TENANTS}
        if guaranteed > 0
        else {},
    )
    report = _serve(services, trace, slo)
    stats = report.tenant_stats
    assert set(stats) <= set(TENANTS)
    offered_in_trace = {}
    for request in trace:
        offered_in_trace[request.tenant] = offered_in_trace.get(request.tenant, 0) + 1
    for tenant, ts in stats.items():
        assert ts.served + ts.shed == ts.offered
        assert ts.offered == offered_in_trace[tenant]
        assert 0 <= ts.slo_met <= ts.served
        assert ts.latency.count == ts.served
    assert sum(ts.served for ts in stats.values()) == report.num_requests
    assert sum(ts.shed for ts in stats.values()) == report.num_shed
    assert sum(ts.offered for ts in stats.values()) == report.num_offered
    assert sum(ts.slo_met for ts in stats.values()) == report.goodput.slo_met


# -------------------------------------------------------- quota conservation
@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    num_per_tenant=st.integers(min_value=5, max_value=25),
    rate=st.sampled_from([5.0, 20.0, 60.0]),
    headroom=st.sampled_from([1.5, 2.0, 4.0]),
    slo_us=st.sampled_from([1.0, 10.0]),
)
def test_within_guarantee_traffic_is_never_shed(
    services, seed, num_per_tenant, rate, headroom, slo_us
):
    """Quota conservation: guarantees admit unconditionally, so tenants
    offering within their guaranteed rate see zero shedding even under an
    impossibly tight SLO that the prediction tier would always reject."""
    trace = _uniform_tenant_trace(
        {tenant: rate for tenant in TENANTS}, num_per_tenant, seed=seed
    )
    slo = SLOPolicy(
        default_slo_seconds=slo_us * 1e-6,  # prediction tier sheds everything
        per_tenant={
            tenant: TenantQuota(guaranteed_rps=headroom * rate) for tenant in TENANTS
        },
    )
    report = _serve(services, trace, slo)
    assert report.num_shed == 0
    assert report.num_requests == len(trace)
    for decision in report.decisions:
        assert decision.admitted
        assert decision.reason == "guaranteed"


# ------------------------------------------------------- weighted shedding
@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    num_tenants=st.integers(min_value=2, max_value=4),
    guaranteed=st.sampled_from([4.0, 10.0]),
    excess_factor=st.sampled_from([1.0, 2.0, 3.0]),
)
def test_shedding_proportional_to_excess_over_guarantee(
    services, seed, num_tenants, guaranteed, excess_factor
):
    """With a tight SLO and no excess budget, each tenant keeps roughly its
    guaranteed admissions and sheds its excess — shed counts track the
    per-tenant excess instead of arrival order."""
    tenants = [f"t{i}" for i in range(num_tenants)]
    offered_rate = {
        # Every tenant offers its guarantee plus a distinct excess.
        tenant: guaranteed * (1.0 + excess_factor * (i + 1))
        for i, tenant in enumerate(tenants)
    }
    num_per_tenant = 40
    trace = _uniform_tenant_trace(offered_rate, num_per_tenant, seed=seed)
    slo = SLOPolicy(
        default_slo_seconds=1e-6,  # prediction tier always sheds
        per_tenant={t: TenantQuota(guaranteed_rps=guaranteed) for t in tenants},
    )
    report = _serve(services, trace, slo)
    stats = report.tenant_stats
    for tenant in tenants:
        ts = stats[tenant]
        duration = num_per_tenant / offered_rate[tenant]
        # Token bucket: one burst-capacity allowance plus accrual over the
        # tenant's stream duration (uniform gaps).
        expected_served = min(
            ts.offered, guaranteed * duration + max(1.0, guaranteed)
        )
        assert ts.served == pytest.approx(expected_served, abs=3.0)
        expected_shed = ts.offered - expected_served
        assert ts.shed == pytest.approx(expected_shed, abs=3.0)
    # Proportionality across tenants: served/offered tracks the guarantee
    # share, so the heavier the excess, the higher the shed rate.
    shed_rates = [stats[t].shed_rate for t in tenants]
    assert shed_rates == sorted(shed_rates)


def test_admission_buckets_reset_between_runs(services):
    """Reusing one admission config across runs must not leak bucket
    state: the second run's simulated clock restarts at 0, so a depleted
    guarantee from run one would otherwise shed within-guarantee traffic."""
    rate = 5.0
    trace = _uniform_tenant_trace({"steady": rate}, 20, seed=7)
    slo = SLOPolicy(
        default_slo_seconds=1e-6,  # only the guaranteed tier can admit
        per_tenant={"steady": TenantQuota(guaranteed_rps=rate)},
    )
    cluster = ShardedServiceCluster(services["CPU"], num_shards=2)
    config = ServingConfig(slo=slo, admit=True)
    first = cluster.serve_online(TraceArrivals(trace), config=config)
    second = cluster.serve_online(TraceArrivals(trace), config=config)
    assert first.num_shed == 0
    assert second.num_shed == 0


def test_excess_budget_not_minted_for_unlisted_tenants(services):
    """Only quota-listed tenants share excess_rps: an unlisted tenant must
    not mint its own budget-sized slice during overload."""
    rate = 50.0
    trace = _uniform_tenant_trace({"listed": rate, "unlisted": rate}, 80, seed=8)
    slo = SLOPolicy(
        default_slo_seconds=1e-6,  # only the excess tier can admit
        per_tenant={"listed": TenantQuota(guaranteed_rps=0.0, weight=1.0)},
        excess_rps=10.0,
    )
    report = _serve(services, trace, slo)
    stats = report.tenant_stats
    assert stats["unlisted"].served == 0
    assert stats["listed"].served > 0
    # The listed tenant's admissions stay within the budget (plus burst).
    duration = 80 / rate
    assert stats["listed"].served <= 10.0 * duration + 10.0 + 1


def test_fairness_metric_helpers():
    from repro.analysis.metrics import TenantStats, attainment_spread, jain_fairness_index

    equal = [
        TenantStats(tenant="a", offered=10, served=10, slo_met=8),
        TenantStats(tenant="b", offered=10, served=10, slo_met=8),
    ]
    assert attainment_spread(equal) == 1.0
    assert jain_fairness_index([0.8, 0.8]) == pytest.approx(1.0)
    skewed = [
        TenantStats(tenant="a", offered=10, served=10, slo_met=9),
        TenantStats(tenant="b", offered=10, served=10, slo_met=3),
    ]
    assert attainment_spread(skewed) == pytest.approx(3.0)
    assert 0.5 < jain_fairness_index([0.9, 0.3]) < 1.0
    starved = [
        TenantStats(tenant="a", offered=10, served=10, slo_met=9),
        TenantStats(tenant="b", offered=10, served=0, slo_met=0),
    ]
    assert attainment_spread(starved) == float("inf")
    assert attainment_spread([]) == 0.0
    assert jain_fairness_index([]) == 0.0
    assert jain_fairness_index([0.0, 0.0]) == 0.0


def test_excess_budget_split_by_weight(services):
    """A shared excess budget admits beyond-guarantee traffic roughly in
    proportion to quota weights (3:1 here), not first-come-first-served."""
    rate = 50.0
    num_per_tenant = 100
    trace = _uniform_tenant_trace(
        {"heavy": rate, "light": rate}, num_per_tenant, seed=1
    )
    slo = SLOPolicy(
        default_slo_seconds=1e-6,  # only the excess tier can admit
        per_tenant={
            "heavy": TenantQuota(guaranteed_rps=0.0, weight=3.0),
            "light": TenantQuota(guaranteed_rps=0.0, weight=1.0),
        },
        excess_rps=20.0,
    )
    report = _serve(services, trace, slo)
    stats = report.tenant_stats
    assert stats["heavy"].served > stats["light"].served > 0
    ratio = stats["heavy"].served / stats["light"].served
    assert 2.0 <= ratio <= 4.5
    for decision in report.decisions:
        if decision.admitted:
            assert decision.reason == "weighted-excess"


def test_rate_limit_sheds_above_cap_even_when_idle(services):
    """limit_rps is a hard cap: an idle cluster still sheds above it."""
    rate = 100.0
    trace = _uniform_tenant_trace({"capped": rate}, 50, seed=2)
    slo = SLOPolicy(
        default_slo_seconds=100.0,  # prediction would admit everything
        per_tenant={
            # Small burst allowance so the steady-state cap (1 in 4) shows
            # within a 50-request trace.
            "capped": TenantQuota(limit_rps=rate / 4.0, burst_seconds=0.05)
        },
    )
    report = _serve(services, trace, slo)
    stats = report.tenant_stats["capped"]
    assert stats.shed > 0
    # Roughly three quarters of the offered load exceeds the cap.
    assert stats.shed == pytest.approx(0.75 * stats.offered, rel=0.25)
    reasons = {d.reason for d in report.decisions if not d.admitted}
    assert reasons == {"rate-limit"}


def test_idle_gap_burst_credit_is_clamped(services):
    """A long-idle high-guarantee tenant cannot flood an unbounded burst.

    Regression: ``guaranteed_rps * burst_seconds`` used to be the bucket
    capacity verbatim, so a tenant with ``guaranteed_rps=500`` returning
    from an idle stretch held 500 instantaneous admissions — an arbitrarily
    large same-instant flood past every co-tenant.  Capacity (and the
    post-idle refill) is now clamped to ``MAX_BURST_TOKENS``.
    """
    profile = make_profile()
    rate = 500.0
    trace = RequestTrace(
        # One request to open the bucket, a 100-second idle gap (refilling
        # 50k tokens' worth at the unclamped rate), then a same-instant
        # 200-request flood.
        [InferenceRequest(request_id=0, arrival_seconds=0.0, workload=profile,
                          tenant="whale")]
        + [
            InferenceRequest(request_id=1 + i, arrival_seconds=100.0,
                             workload=profile, tenant="whale")
            for i in range(200)
        ]
    )
    slo = SLOPolicy(
        default_slo_seconds=1e-6,  # only the guaranteed tier can admit
        per_tenant={"whale": TenantQuota(guaranteed_rps=rate)},
    )
    report = _serve(services, trace, slo)
    stats = report.tenant_stats["whale"]
    # The opener plus a full (clamped) bucket at the flood instant.
    assert stats.served == MAX_BURST_TOKENS + 1
    assert stats.shed == 200 - MAX_BURST_TOKENS


# -------------------------------------------------- batching-aware admission
def test_batch_aware_admission_increases_admitted_goodput(services):
    """On a mergeable trace (one compatibility key, arrivals inside the
    batching window) pricing admission at the marginal merged-batch cost
    strictly beats the conservative standalone estimate.

    Arrival clusters of ``max_batch_size`` coincident requests make the
    difference sharp: the conservative estimate charges every cluster
    member a full standalone pass (the pending-work term compounds), so
    members beyond the first blow the SLO and shed; the marginal estimate
    prices them at the merged-batch increment and the whole cluster rides
    one batch — served within the SLO because the cluster spacing keeps
    the shard drained.
    """
    from repro.serving import InferenceRequest, RequestTrace

    workload = make_profile()
    standalone = services["CPU"].estimate_service_seconds(workload)
    group, spacing = 4, 2.0 * standalone
    trace = RequestTrace(
        [
            InferenceRequest(g * group + i, g * spacing, workload)
            for g in range(15)
            for i in range(group)
        ]
    )
    scheduler = BatchScheduler(max_batch_size=group, max_wait_seconds=1e-3)
    slo = SLOPolicy(default_slo_seconds=1.9 * standalone)

    def run(batch_aware):
        return _serve(
            services, trace, slo, num_shards=1, scheduler=scheduler,
            batch_aware=batch_aware,
        )

    conservative = run(False)
    marginal = run(True)
    assert marginal.goodput.slo_met > conservative.goodput.slo_met
    assert marginal.num_requests > conservative.num_requests
    assert marginal.goodput_rps > conservative.goodput_rps


# ------------------------------------------------------ weighted-fair batching
def test_fair_batching_shields_light_tenant_from_heavy_burst(services):
    """A light tenant's request lands in the first fair batch instead of
    queueing behind the heavy tenant's whole burst."""
    workload = make_profile()
    heavy = [
        # A same-instant burst of batch-compatible heavy-tenant requests.
        OpenLoopArrivals([workload], rate_rps=1e6, process="uniform", seed=4,
                         tenant="heavy").trace(20)
    ]
    light = [
        OpenLoopArrivals([workload], rate_rps=1e6, process="uniform", seed=5,
                         tenant="light").trace(1)
    ]
    trace = merge_traces(heavy + light)

    def sojourn_of_light(tenant_weights):
        scheduler = BatchScheduler(
            max_batch_size=4, max_wait_seconds=0.005, tenant_weights=tenant_weights
        )
        cluster = ShardedServiceCluster(
            services["CPU"], num_shards=1, scheduler=scheduler
        )
        report = cluster.serve_trace(trace)
        [light_record] = [
            s for s in report.served if s.request.tenant == "light"
        ]
        return light_record.sojourn_seconds

    fifo = sojourn_of_light(None)
    fair = sojourn_of_light({"heavy": 1.0, "light": 1.0})
    assert fair < fifo


def test_fair_batching_is_work_conserving_for_a_lone_tenant(services):
    """With a single tenant, fair mode degenerates to the FIFO fill: same
    batches, same report."""
    import json

    trace = OpenLoopArrivals(WORKLOAD_POOL, rate_rps=600.0, seed=6).trace(30)

    def render(tenant_weights):
        scheduler = BatchScheduler(
            max_batch_size=3, max_wait_seconds=0.004, tenant_weights=tenant_weights
        )
        cluster = ShardedServiceCluster(
            services["CPU"], num_shards=2, scheduler=scheduler
        )
        return json.dumps(cluster.serve_trace(trace).as_dict(), sort_keys=True)

    assert render(None) == render({"default": 1.0})


# ------------------------------------------------------------- validation
def test_quota_and_policy_validation():
    with pytest.raises(ValueError):
        TenantQuota(guaranteed_rps=-1.0)
    with pytest.raises(ValueError):
        TenantQuota(weight=0.0)
    with pytest.raises(ValueError):
        TenantQuota(slo_seconds=0.0)
    with pytest.raises(ValueError):
        TenantQuota(limit_rps=0.0)
    with pytest.raises(ValueError):
        TenantQuota(burst_seconds=0.0)
    with pytest.raises(ValueError):
        SLOPolicy(default_slo_seconds=1.0, excess_rps=-1.0)
    with pytest.raises(ValueError):
        BatchScheduler(tenant_weights={"t": 0.0})
    policy = SLOPolicy(
        default_slo_seconds=1.0,
        per_workload={"wl-s": 0.5},
        per_tenant={"vip": TenantQuota(slo_seconds=0.25)},
    )
    assert policy.slo_for(WORKLOAD_POOL[0]) == 0.5
    assert policy.slo_for(WORKLOAD_POOL[0], "vip") == 0.25
    assert policy.slo_for(WORKLOAD_POOL[0], "other") == 0.5
    assert policy.quota_for("other").guaranteed_rps == 0.0
    payload = policy.as_dict()
    assert payload["per_tenant"]["vip"]["slo_seconds"] == 0.25


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(pytest.main([__file__, "-q"]))
