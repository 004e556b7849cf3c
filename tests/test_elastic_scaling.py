"""Voluntary scale-down drains: migration, accounting, engine equivalence.

PR 6 fixed the *crash* path (queued work on a dead shard re-picks a live
one); these tests pin the symmetric *voluntary* path: when the autoscaler
shrinks the active set with ``drain=True`` (the default), queued batches on
the leaving shard re-pick among the survivors, in-flight work runs to
completion, the ``ScalingEvent`` records the migrated/completed counts, and
``ClusterReport.shard_seconds`` bills the drained shard only to its lowered
(post-migration) horizon.  Every drained run must stay byte-identical
between the reference loop and the fast engine — the `ShardHeap` active
prefix and the shared :class:`~repro.serving.faults.DrainPlanner` are
exercised by a pinned scale-down/scale-up cycle and a hypothesis sweep of
schedules × faults × tenants.

The drain scenarios are built in units of ``d`` — one measured service pass
of the pinned workload — so the burst backlog, the trickle arrivals, and the
hysteresis crossings land deterministically whatever the calibrated model
says a pass costs.
"""

import json

import pytest
from conftest import (
    make_bursty_tenant_trace,
    make_profile,
    profile_with_home,
)
from hypothesis import example, given, settings, strategies as st

from repro.analysis.report import format_timeline
from repro.serving import (
    Autoscaler,
    BatchScheduler,
    ENGINE_FAST,
    ENGINE_REFERENCE,
    FaultEvent,
    FaultSchedule,
    InferenceRequest,
    RequestTrace,
    ScalingEvent,
    ServingConfig,
    ShardedServiceCluster,
    SLOPolicy,
    TenantQuota,
    TraceArrivals,
)


def _render(report) -> str:
    return json.dumps(report.as_dict(), sort_keys=True)


@pytest.fixture(scope="module")
def drain_setup(services):
    """The pinned drain scenario's profile and its measured pass time."""
    profile = profile_with_home(home=1, num_candidates=2)
    d = services["CPU"].replicate().serve(profile).total_seconds
    return profile, d


def _drain_cluster(services, engine):
    # Locality with an infinite spill pins every batch to the profile's
    # home shard, so the backlog deterministically builds on shard 1 —
    # the shard a 2 -> 1 scale-down deactivates.
    return ShardedServiceCluster(
        services["CPU"],
        num_shards=2,
        scheduler=BatchScheduler(max_batch_size=1),
        policy="locality",
        engine=engine,
    )


def _scaler(drain=True):
    return Autoscaler(
        min_shards=1,
        max_shards=2,
        scale_up_depth=4.0,
        scale_down_depth=3.0,
        hysteresis_observations=2,
        warmup_seconds=0.0,
        drain=drain,
    )


def _trace(profile, d, units):
    return RequestTrace(
        [
            InferenceRequest(request_id=i, arrival_seconds=u * d, workload=profile)
            for i, u in enumerate(units)
        ]
    )


#: Burst of 12 at t=0 (scales 1 -> 2, backlog builds on both shards), then
#: two trickle arrivals deep inside the backlog horizon: the queue-depth
#: signal drops below the scale-down band while shard 1 still holds queued
#: and in-flight work — exactly the stranding scenario drains exist for.
BURST_THEN_TROUGH = [0.0] * 12 + [5.4, 5.5]

#: The same trough followed by a second flash crowd and a late tail, so the
#: drained shard is reactivated mid-run (scale-down/scale-up cycle).
SCALE_CYCLE = [0.0] * 12 + [5.4, 5.5] + [6.0 + 0.01 * i for i in range(12)] + [12.0, 12.1]


# --------------------------------------------------------------- drain basics
@pytest.mark.parametrize("engine", [ENGINE_REFERENCE, ENGINE_FAST])
def test_scale_down_migrates_queued_work(services, drain_setup, engine):
    """A drained scale-down migrates queued batches and reports the counts."""
    profile, d = drain_setup
    report = _drain_cluster(services, engine).serve_online(
        TraceArrivals(_trace(profile, d, BURST_THEN_TROUGH)),
        config=ServingConfig(autoscaler=_scaler()),
    )
    # Nothing is stranded or lost: every request is served.
    assert report.num_requests == len(BURST_THEN_TROUGH)
    down = [event for event in report.scaling_timeline if event.reason == "scale-down"]
    assert len(down) == 1
    # Queued work on the leaving shard re-picked a survivor; in-flight work
    # ran to completion on the leaving shard.
    assert down[0].migrated == 2
    assert down[0].completed == 1
    up = [event for event in report.scaling_timeline if event.reason == "scale-up"]
    assert all(event.migrated == 0 and event.completed == 0 for event in up)


def test_drain_beats_drainless_on_shard_seconds(services, drain_setup):
    """The drained shard is not billed for backlog that migrated away."""
    profile, d = drain_setup
    trace = _trace(profile, d, BURST_THEN_TROUGH)

    def run(drain):
        return _drain_cluster(services, ENGINE_FAST).serve_online(
            TraceArrivals(trace), config=ServingConfig(autoscaler=_scaler(drain=drain))
        )

    drained, stranded = run(True), run(False)
    # Same demand either way; the drain-less run strands its queued work on
    # the deactivated shard (it still serves eventually — the lease just
    # keeps paying for it).
    assert drained.num_requests == stranded.num_requests
    assert drained.shard_seconds < stranded.shard_seconds
    assert all(
        event.migrated == 0 and event.completed == 0
        for event in stranded.scaling_timeline
    )


@pytest.mark.parametrize("units", [BURST_THEN_TROUGH, SCALE_CYCLE])
def test_drained_runs_byte_identical_across_engines(services, drain_setup, units):
    """Satellite 1: dispatch across a scale-down/scale-up cycle is pinned.

    The fast engine's ``ShardHeap`` must never hand a batch to a shard that
    left the active set mid-run; byte-identical reports (served records
    carry shard ids) prove both engines dispatched every batch identically
    through the drain and the reactivation.
    """
    profile, d = drain_setup
    trace = _trace(profile, d, units)

    def run(engine):
        return _drain_cluster(services, engine).serve_online(
            TraceArrivals(trace), config=ServingConfig(autoscaler=_scaler())
        )

    reference, fast = run(ENGINE_REFERENCE), run(ENGINE_FAST)
    assert _render(reference) == _render(fast)
    assert reference.num_requests == len(units)
    reasons = [event.reason for event in reference.scaling_timeline]
    if units is SCALE_CYCLE:
        # The cycle really happened: the drained shard was reactivated.
        assert "scale-down" in reasons
        assert reasons.index("scale-down") < len(reasons) - 1
        assert reasons[-1] == "scale-up"
        # No served request landed on shard 1 in the window where it was
        # out of the active set.
        down_at = next(
            event.seconds
            for event in reference.scaling_timeline
            if event.reason == "scale-down"
        )
        up_at = next(
            event.seconds
            for event in reference.scaling_timeline
            if event.reason == "scale-up" and event.seconds > down_at
        )
        for served in reference.served:
            # Reconstructed with float roundoff (sojourn sums service back
            # in), so boundary starts get an epsilon margin: the reactivating
            # arrival legitimately starts at exactly ``up_at``.
            start = served.request.arrival_seconds + served.sojourn_seconds - (
                served.service_seconds
            )
            if served.shard_id == 1 and down_at + 1e-9 < start < up_at - 1e-9:
                # Work committed inside the drained window may only be
                # backlog planned before the drain... which the drain
                # migrated.  Nothing new may start there.
                raise AssertionError(
                    f"request {served.request.request_id} started on the "
                    f"drained shard at {start:.6f}"
                )


# ------------------------------------------------------------ event reporting
def test_record_drain_accumulates_on_last_event():
    scaler = Autoscaler(min_shards=1, max_shards=2, hysteresis_observations=1)
    scaler.start(0.0)
    scaler.observe(1.0, 100.0)  # crosses scale_up_depth -> scale-up event
    scaler.record_drain(migrated=3, completed=2)
    scaler.record_drain(migrated=1, completed=0)
    timeline = scaler.timeline()
    assert timeline[-1].reason == "scale-up"
    assert (timeline[-1].migrated, timeline[-1].completed) == (4, 2)
    # Earlier events are untouched.
    assert timeline[0].reason == "init"
    assert timeline[0].migrated == 0


def test_record_drain_without_events_is_noop():
    scaler = Autoscaler(min_shards=1, max_shards=2)
    scaler.record_drain(migrated=5, completed=5)  # no start() yet
    assert scaler.events == []


def test_format_timeline_renders_drain_outcomes():
    events = [
        ScalingEvent(0.0, 1, "init"),
        ScalingEvent(1.5, 2, "scale-up"),
        ScalingEvent(3.0, 1, "scale-down", migrated=4, completed=2),
    ]
    rendered = format_timeline("scaling", events)
    assert "migrated" in rendered and "completed" in rendered
    assert "4" in rendered and "2" in rendered

    class Legacy:
        seconds = 0.0
        active_shards = 1
        reason = "init"

    legacy = format_timeline("scaling", [Legacy()])
    assert "migrated" in legacy  # renders, with zero counts


def test_shard_seconds_reported_only_for_autoscaled_runs(services, drain_setup):
    profile, d = drain_setup
    offline = _drain_cluster(services, ENGINE_FAST).serve_trace(
        _trace(profile, d, [0.0] * 4)
    )
    assert offline.shard_seconds is None
    # The provisioned fallback bills every shard for the whole run.
    assert offline.provisioned_shard_seconds == (
        offline.num_shards * offline.makespan_seconds
    )
    assert offline.as_dict()["shard_seconds"] == offline.provisioned_shard_seconds

    online = _drain_cluster(services, ENGINE_FAST).serve_online(
        TraceArrivals(_trace(profile, d, BURST_THEN_TROUGH)),
        config=ServingConfig(autoscaler=_scaler()),
    )
    assert online.shard_seconds is not None
    assert online.provisioned_shard_seconds == online.shard_seconds
    # Elasticity must not bill more than always-on provisioning would.
    assert online.shard_seconds <= online.num_shards * online.makespan_seconds


# ------------------------------------------------- schedules x faults x tenants
@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    num_per_tenant=st.integers(min_value=5, max_value=15),
    min_shards=st.integers(min_value=1, max_value=2),
    hysteresis=st.integers(min_value=1, max_value=3),
    scale_down_depth=st.sampled_from([0.5, 1.0, 3.0]),
    with_faults=st.booleans(),
    with_admission=st.booleans(),
    drain=st.booleans(),
    expect_drain=st.just(False),
)
@example(
    seed=5,
    num_per_tenant=8,
    min_shards=2,
    hysteresis=1,
    scale_down_depth=3.0,
    with_faults=True,
    with_admission=True,
    drain=True,
    expect_drain=True,
)
def test_scale_down_sweep_conserves_and_matches(
    services,
    seed,
    num_per_tenant,
    min_shards,
    hysteresis,
    scale_down_depth,
    with_faults,
    with_admission,
    drain,
    expect_drain,
):
    """Satellite 4: scale-down schedules x faults x tenants.

    Exact conservation (``offered == served_full + served_degraded + shed +
    failed``) and byte-identical reports in both engines, whatever the
    autoscaler, fault schedule and tenant mix do to the active set.

    Light passes at a low base rate leave troughs between bursts, so many
    examples scale down (a heavy, fast trace keeps the queue deep and
    almost never does).  The pinned example must scale down and drain
    work off the leaving shard.
    """
    trace = make_bursty_tenant_trace(
        [make_profile("light", batch_size=100), make_profile("mid", batch_size=300)],
        num_per_tenant=num_per_tenant,
        base_rate_rps=2.0,
        peak_rate_rps=30.0,
        seed=seed,
    )
    slo = SLOPolicy(
        default_slo_seconds=0.25,
        per_tenant={
            "ent": TenantQuota(guaranteed_rps=5.0, weight=3.0),
            "free": TenantQuota(weight=1.0),
        },
    )
    faults = (
        FaultSchedule(
            [
                FaultEvent(seconds=0.01, shard_id=1, kind="crash"),
                FaultEvent(seconds=0.25, shard_id=1, kind="recover"),
            ],
            retry_budget=1,
        )
        if with_faults
        else None
    )
    config = ServingConfig(
        slo=slo,
        admit=with_admission,
        autoscaler=Autoscaler(
            min_shards=min_shards,
            max_shards=3,
            scale_up_depth=scale_down_depth + 2.0,
            scale_down_depth=scale_down_depth,
            hysteresis_observations=hysteresis,
            warmup_seconds=0.002,
            drain=drain,
        ),
        faults=faults,
    )

    def run(engine):
        cluster = ShardedServiceCluster(
            services["DynPre"],
            num_shards=3,
            scheduler=BatchScheduler(max_batch_size=3, max_wait_seconds=0.004),
            policy="locality",
            engine=engine,
        )
        return cluster.serve_online(TraceArrivals(trace), config=config)

    reference, fast = run(ENGINE_REFERENCE), run(ENGINE_FAST)
    assert _render(reference) == _render(fast)
    goodput = reference.goodput
    assert goodput.offered == len(trace)
    assert goodput.offered == (
        goodput.served_full + goodput.served_degraded + goodput.shed + goodput.failed
    )
    migrated = sum(event.migrated for event in reference.scaling_timeline)
    completed = sum(event.completed for event in reference.scaling_timeline)
    assert migrated >= 0 and completed >= 0
    if not drain:
        assert migrated == 0 and completed == 0
    if expect_drain:
        assert any(event.reason == "scale-down" for event in reference.scaling_timeline)
        assert migrated + completed > 0


# ----------------------------------------------- drain accounting, counted apart
def _in_flight_at_scale_downs(report, order):
    """Per scale-down event: ``(completed, independent count)``.

    The count reads only the served records: requests on the leaving
    shards ``order[after:before]`` whose batch started at or before the
    event and finishes after it.  Starts and finishes are rebuilt from the
    records' delays, so boundaries get a 1e-9 margin: a batch starting at
    the event instant committed first (commits precede same-instant
    arrivals), and one finishing then is done.
    """
    eps = 1e-9
    timeline = report.scaling_timeline
    pairs = []
    for previous, event in zip(timeline, timeline[1:]):
        if event.reason != "scale-down":
            continue
        leaving = set(order[event.active_shards : previous.active_shards])
        t = event.seconds
        count = sum(
            1
            for served in report.served
            if served.shard_id in leaving
            and served.finish_seconds - served.service_seconds <= t + eps
            and served.finish_seconds > t + eps
        )
        pairs.append((event.completed, count))
    return pairs


def test_completed_matches_records_on_pinned_drain(services, drain_setup):
    """The independent count agrees on the pinned drain (one in flight)."""
    profile, d = drain_setup
    cluster = _drain_cluster(services, ENGINE_REFERENCE)
    report = cluster.serve_online(
        TraceArrivals(_trace(profile, d, BURST_THEN_TROUGH)),
        config=ServingConfig(autoscaler=_scaler()),
    )
    assert _in_flight_at_scale_downs(report, cluster._order) == [(1, 1)]


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    num_per_tenant=st.integers(min_value=5, max_value=15),
    min_shards=st.integers(min_value=1, max_value=2),
    hysteresis=st.integers(min_value=1, max_value=3),
    scale_down_depth=st.sampled_from([0.5, 1.0, 3.0]),
    max_batch_size=st.integers(min_value=1, max_value=3),
    policy=st.sampled_from(["least-loaded", "locality"]),
)
def test_completed_counts_requests_in_flight_on_leaving_shards(
    services, seed, num_per_tenant, min_shards, hysteresis, scale_down_depth,
    max_batch_size, policy,
):
    """``ScalingEvent.completed`` equals the served records in flight on the
    leaving shards at the scale-down, over fault-free drained runs.

    Light passes at a modest rate leave troughs between bursts, so most
    examples scale down, many with work in flight.
    """
    trace = make_bursty_tenant_trace(
        [make_profile("light", batch_size=100), make_profile("mid", batch_size=300)],
        num_per_tenant=num_per_tenant,
        base_rate_rps=20.0,
        peak_rate_rps=100.0,
        seed=seed,
    )
    cluster = ShardedServiceCluster(
        services["CPU"],
        num_shards=3,
        scheduler=BatchScheduler(max_batch_size=max_batch_size, max_wait_seconds=0.004),
        policy=policy,
        engine=ENGINE_REFERENCE,
    )
    report = cluster.serve_online(
        TraceArrivals(trace),
        config=ServingConfig(
            autoscaler=Autoscaler(
                min_shards=min_shards,
                max_shards=3,
                scale_up_depth=scale_down_depth + 2.0,
                scale_down_depth=scale_down_depth,
                hysteresis_observations=hysteresis,
                warmup_seconds=0.002,
            )
        ),
    )
    for completed, count in _in_flight_at_scale_downs(report, cluster._order):
        assert completed == count
