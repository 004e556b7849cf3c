"""Property-based tests of the SLO-aware serving control plane.

Invariants under test (see ISSUE/DESIGN "Control plane"):

* admission never violates its own prediction: a request is admitted iff
  its predicted sojourn at arrival is within the workload's SLO, and every
  shed record carries a violating prediction;
* conservation: shed + served == offered, for open- and closed-loop sources;
* goodput never exceeds throughput;
* the autoscaler's shard count stays within [min_shards, max_shards] and is
  hysteresis-stable on constant in-band load;
* the online event loop with no control attached is an exact replay of the
  offline ``serve_trace`` path (same report, byte for byte).
"""

import json
from dataclasses import replace

import pytest
from conftest import WORKLOAD_POOL, make_profile
from hypothesis import given, settings, strategies as st

from repro.serving import (
    QUALITY_DEGRADED,
    QUALITY_FULL,
    Autoscaler,
    BatchScheduler,
    ClosedLoopClients,
    DegradationPolicy,
    OpenLoopArrivals,
    ServingConfig,
    ServingController,
    ShardedServiceCluster,
    SLOPolicy,
    TraceArrivals,
)


def _mean_cost(services, name="CPU"):
    svc = services[name]
    return sum(svc.estimate_service_seconds(w) for w in WORKLOAD_POOL) / len(WORKLOAD_POOL)


# ---------------------------------------------------------------- admission
@settings(max_examples=20, deadline=None)
@given(
    num_clients=st.integers(min_value=1, max_value=12),
    think_ms=st.integers(min_value=0, max_value=20),
    seed=st.integers(min_value=0, max_value=2**16),
    max_requests=st.integers(min_value=10, max_value=40),
    slo_factor=st.floats(min_value=0.5, max_value=4.0),
)
def test_admission_prediction_invariant_closed_loop(
    services, num_clients, think_ms, seed, max_requests, slo_factor
):
    """Admit ⇔ predicted sojourn ≤ SLO, and shed + served == offered."""
    slo = SLOPolicy(default_slo_seconds=slo_factor * _mean_cost(services))
    cluster = ShardedServiceCluster(
        services["CPU"],
        num_shards=2,
        scheduler=BatchScheduler(max_batch_size=2, max_wait_seconds=0.002),
    )
    clients = ClosedLoopClients(
        WORKLOAD_POOL,
        num_clients=num_clients,
        think_seconds=think_ms * 1e-3,
        seed=seed,
        max_requests=max_requests,
        retry_backoff_seconds=0.005,
    )
    report = ServingController(cluster, slo=slo).serve(clients)

    assert len(report.decisions) == report.num_offered
    for decision in report.decisions:
        assert decision.admitted == (decision.predicted_sojourn <= decision.slo_seconds)
    for record in report.shed:
        assert record.predicted_sojourn > record.slo_seconds
    # Conservation: every issued request was either served or shed.
    assert report.num_requests + report.num_shed == report.num_offered
    assert report.num_offered == clients.num_issued
    assert clients.num_outstanding == 0


@settings(max_examples=15, deadline=None)
@given(
    rate_factor=st.floats(min_value=0.25, max_value=4.0),
    seed=st.integers(min_value=0, max_value=2**16),
    num_requests=st.integers(min_value=8, max_value=40),
    slo_factor=st.floats(min_value=0.5, max_value=3.0),
)
def test_goodput_bounded_by_throughput_open_loop(
    services, rate_factor, seed, num_requests, slo_factor
):
    """goodput <= throughput, and conservation holds for trace sources too."""
    cost = _mean_cost(services)
    slo = SLOPolicy(default_slo_seconds=slo_factor * cost)
    trace = OpenLoopArrivals(
        WORKLOAD_POOL, rate_rps=rate_factor / cost, seed=seed
    ).trace(num_requests)
    cluster = ShardedServiceCluster(
        services["CPU"],
        num_shards=2,
        scheduler=BatchScheduler(max_batch_size=2, max_wait_seconds=0.002),
    )
    source = TraceArrivals(trace)
    report = ServingController(cluster, slo=slo).serve(source)
    assert report.goodput_rps <= report.throughput_rps + 1e-9
    assert report.num_requests + report.num_shed == len(trace)
    assert source.num_issued == len(trace)
    goodput = report.goodput
    assert goodput.offered == goodput.served + goodput.shed
    assert 0.0 <= goodput.shed_rate <= 1.0
    assert 0.0 <= goodput.slo_attainment <= 1.0


# --------------------------------------------------------------- autoscaler
@settings(max_examples=30, deadline=None)
@given(
    min_shards=st.integers(min_value=1, max_value=3),
    extra=st.integers(min_value=0, max_value=3),
    down=st.floats(min_value=0.0, max_value=2.0),
    band=st.floats(min_value=0.5, max_value=4.0),
    hysteresis=st.integers(min_value=1, max_value=4),
    depths=st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=1, max_size=40),
)
def test_autoscaler_stays_within_bounds(min_shards, extra, down, band, hysteresis, depths):
    """Any observation sequence keeps the shard count in [min, max]."""
    scaler = Autoscaler(
        min_shards=min_shards,
        max_shards=min_shards + extra,
        scale_up_depth=down + band,
        scale_down_depth=down,
        hysteresis_observations=hysteresis,
    )
    scaler.start(0.0)
    for i, depth in enumerate(depths):
        active = scaler.observe(float(i), depth)
        assert scaler.min_shards <= active <= scaler.max_shards
    for event in scaler.timeline():
        assert scaler.min_shards <= event.active_shards <= scaler.max_shards


@settings(max_examples=30, deadline=None)
@given(
    min_shards=st.integers(min_value=1, max_value=4),
    extra=st.integers(min_value=1, max_value=4),
    hysteresis=st.integers(min_value=1, max_value=4),
    num_observations=st.integers(min_value=1, max_value=50),
)
def test_autoscaler_hysteresis_stable_on_constant_load(
    min_shards, extra, hysteresis, num_observations
):
    """Constant per-shard depth inside the dead band never changes the count."""
    scaler = Autoscaler(
        min_shards=min_shards,
        max_shards=min_shards + extra,
        scale_up_depth=4.0,
        scale_down_depth=1.0,
        hysteresis_observations=hysteresis,
    )
    scaler.start(0.0)
    for i in range(num_observations):
        # Mid-band depth, scaled by the current active count so the
        # per-shard depth stays in the dead band whatever the count is.
        active = scaler.observe(float(i), 2.5 * scaler.active)
        assert active == min_shards
    assert [event.reason for event in scaler.timeline()] == ["init"]


def test_autoscaler_ramps_to_max_under_sustained_overload():
    scaler = Autoscaler(
        min_shards=1, max_shards=4, scale_up_depth=2.0, scale_down_depth=0.5,
        hysteresis_observations=2,
    )
    scaler.start(0.0)
    for i in range(20):
        scaler.observe(float(i), 100.0)
    assert scaler.active == 4
    reasons = [event.reason for event in scaler.timeline()]
    assert reasons == ["init", "scale-up", "scale-up", "scale-up"]


def test_autoscaler_scales_down_when_idle():
    scaler = Autoscaler(
        min_shards=1, max_shards=3, scale_up_depth=2.0, scale_down_depth=0.5,
        hysteresis_observations=2,
    )
    scaler.start(0.0)
    for i in range(10):
        scaler.observe(float(i), 50.0)
    assert scaler.active == 3
    for i in range(10, 20):
        scaler.observe(float(i), 0.0)
    assert scaler.active == 1


def test_autoscaler_rejects_bad_params():
    with pytest.raises(ValueError):
        Autoscaler(min_shards=0)
    with pytest.raises(ValueError):
        Autoscaler(min_shards=3, max_shards=2)
    with pytest.raises(ValueError):
        Autoscaler(scale_up_depth=1.0, scale_down_depth=1.0)
    with pytest.raises(ValueError):
        Autoscaler(hysteresis_observations=0)
    with pytest.raises(ValueError):
        Autoscaler(warmup_seconds=-1.0)


def test_autoscaler_in_loop_respects_bounds_and_warmup(services):
    """Scaling inside the event loop stays within bounds; a newly activated
    shard serves nothing before its warm-up elapses."""
    warmup = 0.05
    cluster = ShardedServiceCluster(
        services["CPU"], num_shards=3, scheduler=BatchScheduler(max_batch_size=1)
    )
    scaler = Autoscaler(
        min_shards=1, max_shards=3, scale_up_depth=1.0, scale_down_depth=0.25,
        hysteresis_observations=2, warmup_seconds=warmup,
    )
    cost = _mean_cost(services)
    clients = ClosedLoopClients(
        WORKLOAD_POOL, num_clients=8, seed=5, max_requests=60
    )
    report = ServingController(cluster, autoscaler=scaler).serve(clients)
    assert report.num_requests == 60
    activated_at = {}
    for event in report.scaling_timeline:
        assert 1 <= event.active_shards <= 3
        if event.reason == "scale-up":
            activated_at.setdefault(event.active_shards - 1, event.seconds)
    assert activated_at, "the overloaded run should have scaled up"
    for served in report.served:
        if served.shard_id in activated_at:
            start = (
                served.request.arrival_seconds
                + served.batching_delay
                + served.dispatch_delay
            )
            assert start >= activated_at[served.shard_id] + warmup - 1e-12
    assert cost > 0  # sanity: estimates calibrated


# ----------------------------------------------------- event-loop equivalence
@settings(max_examples=15, deadline=None)
@given(
    rate_rps=st.sampled_from([50.0, 200.0, 1000.0]),
    seed=st.integers(min_value=0, max_value=2**16),
    num_requests=st.integers(min_value=4, max_value=30),
    max_batch_size=st.integers(min_value=1, max_value=4),
    num_shards=st.integers(min_value=1, max_value=4),
)
def test_online_loop_replays_offline_trace_exactly(
    services, rate_rps, seed, num_requests, max_batch_size, num_shards
):
    """With no control attached, serve_online == serve_trace, byte for byte.

    Poisson arrivals keep timestamps distinct, so batching-event ties (the
    only place the two loops could legally order work differently) do not
    occur; under that condition the reworked online event loop must be an
    exact replay of the offline scheduler-driven path.
    """
    trace = OpenLoopArrivals(WORKLOAD_POOL, rate_rps=rate_rps, seed=seed).trace(num_requests)
    scheduler = BatchScheduler(max_batch_size=max_batch_size, max_wait_seconds=0.003)
    offline = ShardedServiceCluster(
        services["CPU"], num_shards=num_shards, scheduler=scheduler
    ).serve_trace(trace)
    online = ShardedServiceCluster(
        services["CPU"], num_shards=num_shards, scheduler=scheduler
    ).serve_online(TraceArrivals(trace))
    assert json.dumps(offline.as_dict(), sort_keys=True) == json.dumps(
        online.as_dict(), sort_keys=True
    )


# ------------------------------------------------------------- closed loop
def test_closed_loop_arrivals_follow_actual_finish_times(services):
    """With one client and no think time, request i+1 arrives exactly when
    request i finishes — the loop is fed by real completions, not estimates."""
    cluster = ShardedServiceCluster(
        services["CPU"], num_shards=1, scheduler=BatchScheduler(max_batch_size=1)
    )
    clients = ClosedLoopClients(
        [make_profile()], num_clients=1, think_seconds=0.0, seed=0, max_requests=8
    )
    report = cluster.serve_online(clients)
    ordered = sorted(report.served, key=lambda s: s.request.request_id)
    assert len(ordered) == 8
    for previous, current in zip(ordered, ordered[1:]):
        assert current.request.arrival_seconds == pytest.approx(
            previous.finish_seconds
        )


def test_closed_loop_shed_clients_retry_after_backoff(services):
    """A shed request re-arrives exactly backoff later (think time zero)."""
    slo = SLOPolicy(default_slo_seconds=1e-9)  # impossible: everything sheds
    cluster = ShardedServiceCluster(services["CPU"], num_shards=1)
    clients = ClosedLoopClients(
        [make_profile()], num_clients=1, seed=0, max_requests=5,
        retry_backoff_seconds=0.5,
    )
    report = ServingController(cluster, slo=slo).serve(clients)
    assert report.num_requests == 0
    assert report.num_shed == 5
    arrivals = [record.request.arrival_seconds for record in report.shed]
    assert arrivals == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0])
    assert report.goodput_rps == 0.0


def test_closed_loop_clients_validation():
    w = [make_profile()]
    with pytest.raises(ValueError):
        ClosedLoopClients(w, num_clients=0, max_requests=1)
    with pytest.raises(ValueError):
        ClosedLoopClients(w, num_clients=1, max_requests=0)
    with pytest.raises(ValueError):
        ClosedLoopClients(w, num_clients=1, max_requests=1, think_seconds=-1.0)
    with pytest.raises(ValueError):
        ClosedLoopClients(w, num_clients=1, max_requests=1, retry_backoff_seconds=-0.1)
    with pytest.raises(ValueError):
        ClosedLoopClients([], num_clients=1, max_requests=1)
    exhausted = ClosedLoopClients(w, num_clients=1, max_requests=1)
    exhausted.pop()
    assert exhausted.peek_time() is None
    with pytest.raises(IndexError):
        exhausted.pop()


# ------------------------------------------------------- graceful degradation
def test_workload_degrade_produces_cheaper_own_batch_profile():
    w = make_profile()
    degraded = w.degrade(k_factor=0.5, layer_drop=1)
    assert degraded.quality == QUALITY_DEGRADED
    assert w.quality == QUALITY_FULL
    assert degraded.k == w.k // 2
    assert degraded.num_layers == w.num_layers - 1
    assert degraded.name == w.name  # SLO/quota policies resolve identically
    assert degraded.batch_key != w.batch_key  # own batches
    assert degraded.total_selections < w.total_selections
    # Floors clamp but never raise k / layers above the original.
    floor = w.degrade(k_factor=0.01, min_k=3, layer_drop=10, min_layers=1)
    assert floor.k == 3
    assert floor.num_layers == 1
    small = replace(w, k=2)
    assert small.degrade(k_factor=0.5, min_k=5).k == 2


def test_workload_degrade_and_policy_validation():
    w = make_profile()
    for kwargs in (
        {"k_factor": 0.0},
        {"k_factor": 1.5},
        {"min_k": 0},
        {"layer_drop": -1},
        {"min_layers": 0},
    ):
        with pytest.raises(ValueError):
            w.degrade(**kwargs)
    with pytest.raises(ValueError):
        DegradationPolicy(k_factor=0.0)
    with pytest.raises(ValueError):
        DegradationPolicy(degraded_utility=1.5)
    with pytest.raises(ValueError):
        replace(w, quality="premium")
    # apply() is idempotent: a degraded profile never degrades twice.
    policy = DegradationPolicy(k_factor=0.5, layer_drop=1)
    once = policy.apply(w)
    assert policy.apply(once) == once


@settings(max_examples=15, deadline=None)
@given(
    rate_factor=st.floats(min_value=1.0, max_value=4.0),
    seed=st.integers(min_value=0, max_value=2**16),
    num_requests=st.integers(min_value=10, max_value=50),
    slo_factor=st.floats(min_value=0.5, max_value=2.0),
)
def test_tiered_serving_conservation_and_decision_invariants(
    services, rate_factor, seed, num_requests, slo_factor
):
    """Exact integer conservation with the degraded tier active:
    ``offered == served_full + served_degraded + shed + failed``, the
    tier split agrees with the served records, and every degraded
    admission carries the "degraded" reason with an in-SLO prediction."""
    cost = _mean_cost(services)
    slo = SLOPolicy(default_slo_seconds=slo_factor * cost)
    trace = OpenLoopArrivals(
        WORKLOAD_POOL, rate_rps=rate_factor / cost, seed=seed
    ).trace(num_requests)
    cluster = ShardedServiceCluster(
        services["CPU"],
        num_shards=2,
        scheduler=BatchScheduler(max_batch_size=2, max_wait_seconds=0.002),
    )
    source = TraceArrivals(trace)
    report = cluster.serve_online(
        source,
        config=ServingConfig(
            slo=slo,
            admit=True,
            degradation=DegradationPolicy(k_factor=0.5, layer_drop=1),
        ),
    )
    goodput = report.goodput
    assert (
        goodput.offered
        == goodput.served_full + goodput.served_degraded + goodput.shed + goodput.failed
    )
    assert goodput.served_full == goodput.served - goodput.served_degraded
    assert goodput.slo_met_full + goodput.slo_met_degraded == goodput.slo_met
    assert goodput.slo_met_degraded <= goodput.served_degraded
    assert goodput.served_degraded == sum(
        1 for s in report.served if s.request.workload.quality == QUALITY_DEGRADED
    )
    # Per-tenant tier splits sum to the cluster-wide ones.
    tenants = report.tenant_stats.values()
    assert sum(t.served_degraded for t in tenants) == goodput.served_degraded
    assert sum(t.slo_met_degraded for t in tenants) == goodput.slo_met_degraded
    for decision in report.decisions:
        if decision.degraded:
            assert decision.admitted
            assert decision.reason == "degraded"
            assert decision.predicted_sojourn <= decision.slo_seconds
    for record in report.shed:
        # Shed means *both* tiers violated the prediction.
        assert record.predicted_sojourn > record.slo_seconds


def test_degraded_tier_admits_instead_of_shedding(services):
    """Requests the full-quality prediction would shed are served degraded
    when their cheaper profile fits the SLO, lifting goodput above binary
    shedding on the same trace."""
    w = make_profile()
    svc = services["CPU"]
    degraded = DegradationPolicy(k_factor=0.3, layer_drop=1)
    full_cost = svc.estimate_service_seconds(w)
    degraded_cost = svc.estimate_service_seconds(degraded.apply(w))
    assert degraded_cost < full_cost
    # SLO between the two costs: full-quality sheds, degraded fits.
    slo = SLOPolicy(default_slo_seconds=(degraded_cost + full_cost) / 2.0)
    trace = OpenLoopArrivals([w], rate_rps=0.01 / full_cost, seed=3).trace(6)
    cluster = ShardedServiceCluster(
        svc, num_shards=1, scheduler=BatchScheduler(max_batch_size=1)
    )
    binary = cluster.serve_online(
        TraceArrivals(trace), config=ServingConfig(slo=slo, admit=True)
    )
    tiered = cluster.serve_online(
        TraceArrivals(trace),
        config=ServingConfig(slo=slo, admit=True, degradation=degraded),
    )
    assert binary.num_requests == 0 and binary.num_shed == len(trace)
    assert tiered.num_shed == 0
    assert tiered.goodput.served_degraded == len(trace)
    assert all(
        s.request.workload.quality == QUALITY_DEGRADED for s in tiered.served
    )
    assert tiered.goodput.slo_weighted_goodput_rps(0.5) > 0.0
    assert binary.goodput.slo_weighted_goodput_rps(0.5) == 0.0


def test_degradation_noop_when_profile_already_at_floor(services):
    """A policy whose floors make degradation free (no cheaper profile)
    behaves exactly like binary shedding — no degraded batches appear."""
    w = make_profile()
    at_floor = DegradationPolicy(k_factor=1.0, layer_drop=0)
    cost = services["CPU"].estimate_service_seconds(w)
    slo = SLOPolicy(default_slo_seconds=0.5 * cost)
    trace = OpenLoopArrivals([w], rate_rps=1.0 / cost, seed=1).trace(8)
    cluster = ShardedServiceCluster(
        services["CPU"], num_shards=1, scheduler=BatchScheduler(max_batch_size=1)
    )
    tiered = cluster.serve_online(
        TraceArrivals(trace),
        config=ServingConfig(slo=slo, admit=True, degradation=at_floor),
    )
    assert tiered.goodput.served_degraded == 0
    assert tiered.num_shed == len(trace)


# ------------------------------------------------------------------ policies
def test_slo_policy_overrides_and_validation():
    policy = SLOPolicy(default_slo_seconds=0.5, per_workload={"wl-s": 0.1})
    assert policy.slo_for(WORKLOAD_POOL[0]) == 0.1
    assert policy.slo_for(WORKLOAD_POOL[1]) == 0.5
    payload = json.loads(json.dumps(policy.as_dict()))
    assert payload["default_slo_seconds"] == 0.5
    with pytest.raises(ValueError):
        SLOPolicy(default_slo_seconds=0.0)
    with pytest.raises(ValueError):
        SLOPolicy(default_slo_seconds=1.0, per_workload={"x": -1.0})


def test_serving_controller_validates_autoscaler_bounds(services):
    cluster = ShardedServiceCluster(services["CPU"], num_shards=2)
    with pytest.raises(ValueError):
        ServingController(cluster, autoscaler=Autoscaler(min_shards=1, max_shards=4))


def test_serve_online_validates_autoscaler_bounds_directly(services):
    # Regression: bypassing ServingController must not IndexError mid-run
    # when the autoscaler can grow past the cluster's shard count.
    cluster = ShardedServiceCluster(services["CPU"], num_shards=2)
    clients = ClosedLoopClients([make_profile()], num_clients=4, seed=0, max_requests=8)
    oversized = Autoscaler(min_shards=1, max_shards=8, scale_up_depth=0.5,
                           scale_down_depth=0.1, hysteresis_observations=1)
    with pytest.raises(ValueError, match="max_shards"):
        cluster.serve_online(clients, config=ServingConfig(autoscaler=oversized))


def test_report_with_control_sections_is_json_serializable(services):
    slo = SLOPolicy(default_slo_seconds=0.25)
    cluster = ShardedServiceCluster(
        services["CPU"], num_shards=2, scheduler=BatchScheduler(max_batch_size=2)
    )
    scaler = Autoscaler(min_shards=1, max_shards=2, scale_up_depth=1.0,
                        scale_down_depth=0.25, hysteresis_observations=2)
    clients = ClosedLoopClients(
        WORKLOAD_POOL, num_clients=6, seed=1, max_requests=30,
        retry_backoff_seconds=0.01,
    )
    report = ServingController(cluster, slo=slo, autoscaler=scaler).serve(clients)
    payload = json.loads(json.dumps(report.as_dict()))
    goodput = payload["goodput"]
    assert goodput["offered"] == goodput["served"] + goodput["shed"]
    assert payload["slo"]["default_slo_seconds"] == 0.25
    assert payload["scaling_timeline"][0][2] == "init"


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(pytest.main([__file__, "-q"]))
