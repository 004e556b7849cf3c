"""Property-based tests of the fault-tolerant serving contracts.

1. *Conservation*: under any fault schedule, every offered request is
   accounted for exactly once — ``offered == served + shed + failed`` — in
   both report counters and the arrival source's own bookkeeping.
2. *Engine identity*: both serving engines render byte-identical
   ``ClusterReport.as_dict()`` under every fault schedule, offline and
   online.
3. *Recovery*: a schedule with no crashes never fails or migrates anything,
   and a crash-free run is byte-identical to a run with no schedule at all
   (the fault layer is a strict generalisation of the fault-free loops).
"""

import json
import math

import pytest
from conftest import WORKLOAD_POOL
from hypothesis import given, settings, strategies as st

from repro.serving import (
    AdmissionController,
    Autoscaler,
    BatchScheduler,
    ENGINES,
    FAULT_CRASH,
    FAULT_RECOVER,
    FAULT_SLOWDOWN,
    FaultEvent,
    FaultSchedule,
    InferenceRequest,
    OpenLoopArrivals,
    RandomFaults,
    RequestTrace,
    ServingConfig,
    ShardedServiceCluster,
    SLOPolicy,
    TenantQuota,
    TraceArrivals,
    merge_traces,
)

NUM_SHARDS = 3

random_schedules = st.builds(
    lambda seed, up, down, slow, budget: RandomFaults(
        num_shards=NUM_SHARDS,
        horizon_seconds=0.6,
        mean_uptime_seconds=up,
        mean_downtime_seconds=down,
        slowdown_probability=slow,
        slowdown_factor=2.0,
        retry_budget=budget,
        retry_backoff_seconds=0.002,
        seed=seed,
    ).schedule(),
    seed=st.integers(min_value=0, max_value=2**16),
    up=st.sampled_from([0.02, 0.05, 0.2]),
    down=st.sampled_from([0.01, 0.05, 0.15]),
    slow=st.sampled_from([0.0, 0.5]),
    budget=st.integers(min_value=0, max_value=3),
)


def _cluster(services, engine="fast", **kwargs):
    kwargs.setdefault("scheduler", BatchScheduler(max_batch_size=3, max_wait_seconds=0.003))
    return ShardedServiceCluster(
        services["DynPre"], num_shards=NUM_SHARDS, engine=engine, **kwargs
    )


def _trace(seed, num_requests=30, rate_rps=300.0):
    return OpenLoopArrivals(WORKLOAD_POOL, rate_rps=rate_rps, seed=seed).trace(num_requests)


def _render(report):
    return json.dumps(report.as_dict(), sort_keys=True)


class _CountingSource(TraceArrivals):
    """Trace replay that tallies terminal callbacks for conservation checks."""

    def __init__(self, trace):
        super().__init__(trace)
        self.completed = 0
        self.dropped = 0

    def on_complete(self, request, seconds):
        self.completed += 1
        super().on_complete(request, seconds)

    def on_shed(self, request, seconds):
        self.dropped += 1
        super().on_shed(request, seconds)


# ------------------------------------------------------------- conservation
@settings(max_examples=20, deadline=None)
@given(faults=random_schedules, seed=st.integers(min_value=0, max_value=2**16))
def test_offline_conservation(services, faults, seed):
    """Offline replay: every request is served or failed, never lost."""
    trace = _trace(seed)
    report = _cluster(services).serve_trace(trace, config=ServingConfig(faults=faults))
    goodput = report.goodput
    assert goodput.offered == len(trace)
    assert goodput.offered == goodput.served + goodput.shed + goodput.failed
    assert goodput.shed == 0
    assert goodput.failed == report.faults.failed


@settings(max_examples=20, deadline=None)
@given(faults=random_schedules, seed=st.integers(min_value=0, max_value=2**16))
def test_online_conservation_with_admission(services, faults, seed):
    """Online with admission: offered == served + shed + failed exactly,
    and the arrival source saw one terminal callback per request."""
    trace = _trace(seed)
    slo = SLOPolicy(default_slo_seconds=0.5)
    source = _CountingSource(trace)
    report = _cluster(services).serve_online(
        source,
        config=ServingConfig(controller=AdmissionController(policy=slo), faults=faults),
    )
    goodput = report.goodput
    assert goodput.offered == len(trace)
    assert goodput.offered == goodput.served + goodput.shed + goodput.failed
    assert source.completed == goodput.served
    assert source.dropped == goodput.shed + goodput.failed


# ---------------------------------------------------------- engine identity
@settings(max_examples=15, deadline=None)
@given(faults=random_schedules, seed=st.integers(min_value=0, max_value=2**16))
def test_engines_identical_offline_under_faults(services, faults, seed):
    trace = _trace(seed)
    slo = SLOPolicy(default_slo_seconds=0.5)
    reference = _cluster(services, engine="reference").serve_trace(
        trace, config=ServingConfig(slo=slo, faults=faults)
    )
    fast = _cluster(services, engine="fast").serve_trace(
        trace, config=ServingConfig(slo=slo, faults=faults)
    )
    assert _render(reference) == _render(fast)


@settings(max_examples=15, deadline=None)
@given(faults=random_schedules, seed=st.integers(min_value=0, max_value=2**16))
def test_engines_identical_online_under_faults(services, faults, seed):
    trace = _trace(seed)
    slo = SLOPolicy(default_slo_seconds=0.5)

    def run(engine):
        return _cluster(services, engine=engine).serve_online(
            TraceArrivals(trace),
            config=ServingConfig(
                controller=AdmissionController(policy=slo),
                autoscaler=Autoscaler(min_shards=1, max_shards=NUM_SHARDS),
                faults=faults,
            ),
        )

    assert _render(run("reference")) == _render(run("fast"))


# ----------------------------------------------------------------- recovery
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16),
       factor=st.sampled_from([1.5, 3.0]))
def test_slowdowns_alone_never_fail_requests(services, seed, factor):
    """Slowdown-only schedules degrade latency, never correctness."""
    faults = FaultSchedule(
        events=(
            FaultEvent(seconds=0.01, shard_id=0, kind=FAULT_SLOWDOWN, factor=factor),
            FaultEvent(seconds=0.02, shard_id=1, kind=FAULT_SLOWDOWN, factor=factor),
        )
    )
    report = _cluster(services).serve_trace(_trace(seed), config=ServingConfig(faults=faults))
    assert report.faults.failed == 0
    assert report.faults.migrated == 0
    assert report.faults.retried == 0
    assert report.goodput.served == report.goodput.offered


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_empty_schedule_matches_no_schedule(services, seed):
    """An empty fault schedule only adds the (empty) faults section."""
    trace = _trace(seed)
    faulted = _cluster(services).serve_trace(
        trace, config=ServingConfig(faults=FaultSchedule(events=()))
    )
    plain = _cluster(services).serve_trace(trace)
    faulted_dict = faulted.as_dict()
    plain_dict = plain.as_dict()
    assert faulted_dict.pop("faults")["failed"] == 0
    assert plain_dict.pop("faults") is None
    assert json.dumps(faulted_dict, sort_keys=True) == json.dumps(
        plain_dict, sort_keys=True
    )


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16),
       budget=st.integers(min_value=1, max_value=3))
def test_recovered_crash_serves_everything_offline(services, seed, budget):
    """One crash-and-recover outage: offline replay still serves 100%
    (work migrates or retries; nothing is lost when capacity returns)."""
    faults = FaultSchedule(
        events=(
            FaultEvent(seconds=0.02, shard_id=0, kind=FAULT_CRASH),
            FaultEvent(seconds=0.1, shard_id=0, kind=FAULT_RECOVER),
        ),
        retry_budget=budget,
        retry_backoff_seconds=0.005,
    )
    report = _cluster(services).serve_trace(_trace(seed), config=ServingConfig(faults=faults))
    assert report.goodput.served == report.goodput.offered
    assert report.faults.failed == 0


@pytest.mark.parametrize("engine", ENGINES)
def test_offline_retries_rebatch_like_arrivals(services, engine):
    """An offline replay has the online loop's fault semantics: requests
    killed in flight retry through the batcher, so same-instant retries of
    one workload share a batch instead of each dispatching alone."""
    workload = WORKLOAD_POOL[0]
    trace = RequestTrace(
        [
            InferenceRequest(request_id=i, arrival_seconds=i * 1e-4, workload=workload)
            for i in range(4)
        ]
    )
    faults = FaultSchedule(
        events=(
            FaultEvent(seconds=0.01, shard_id=0, kind=FAULT_CRASH),
            FaultEvent(seconds=0.02, shard_id=0, kind=FAULT_RECOVER),
        ),
        retry_budget=1,
        retry_backoff_seconds=0.03,
    )
    cluster = ShardedServiceCluster(
        services["CPU"],
        num_shards=1,
        engine=engine,
        scheduler=BatchScheduler(max_batch_size=4, max_wait_seconds=0.001),
    )
    report = cluster.serve_trace(trace, config=ServingConfig(faults=faults))
    assert report.faults.retried == 4
    assert report.num_requests == 4
    assert report.num_batches == 1
    # The first attempt is killed by the crash at 10 ms; the retried batch
    # closes when its fourth retry arrives at 10 ms + 30 ms backoff.
    for served in report.served:
        assert served.batch_size == 4
        ready = served.request.arrival_seconds + served.batching_delay
        assert ready == pytest.approx(0.04)


def test_all_shards_dead_fails_everything(services):
    """Permanently crashing every shard fails every request (none lost)."""
    faults = FaultSchedule(
        events=tuple(
            FaultEvent(seconds=0.0, shard_id=i, kind=FAULT_CRASH)
            for i in range(NUM_SHARDS)
        ),
        retry_budget=1,
        retry_backoff_seconds=0.005,
    )
    trace = _trace(3, num_requests=10)
    report = _cluster(services).serve_trace(trace, config=ServingConfig(faults=faults))
    assert report.goodput.served == 0
    assert report.goodput.failed == len(trace)


def test_fault_oblivious_baseline_serves_less(services):
    """The fault_aware=False baseline black-holes work on a dead shard."""
    events = (FaultEvent(seconds=0.02, shard_id=0, kind=FAULT_CRASH),)
    aware = FaultSchedule(events=events, retry_budget=1, retry_backoff_seconds=0.005)
    oblivious = FaultSchedule(
        events=events, retry_budget=1, retry_backoff_seconds=0.005, fault_aware=False
    )
    trace = _trace(5, num_requests=40)
    served_aware = (
        _cluster(services).serve_trace(trace, config=ServingConfig(faults=aware)).goodput.served
    )
    served_oblivious = (
        _cluster(services)
        .serve_trace(trace, config=ServingConfig(faults=oblivious))
        .goodput.served
    )
    assert served_aware == len(trace)
    assert served_oblivious < served_aware


# ------------------------------------------------------ fault-aware locality
@pytest.mark.parametrize("engine", ENGINES)
def test_locality_dispatch_avoids_dead_preferred_shard(services, engine):
    """Locality dispatch under a crash schedule: the configured/home shard
    is never handed work while it is down — batches fall through to the
    live shards — and service resumes on it after recovery.  Regression
    for dispatch filtering candidates to alive shards before the locality
    preference is applied."""
    w = WORKLOAD_POOL[0]
    trace = OpenLoopArrivals([w], rate_rps=300.0, seed=11).trace(40)
    # A huge spill threshold makes dispatch pure locality preference (no
    # least-loaded spilling): every replica of the calibrated service is
    # already configured for ``w``, so preference is earliest-free with
    # index tie-break — shard 0 is the most-preferred target.
    kwargs = dict(policy="locality", locality_spill_seconds=100.0)

    def starts(report):
        return [
            (
                s.shard_id,
                s.request.arrival_seconds + s.batching_delay + s.dispatch_delay,
            )
            for s in report.served
        ]

    baseline = _cluster(services, engine, **kwargs).serve_trace(trace)
    preferred = 0
    assert any(shard == preferred for shard, _ in starts(baseline)), (
        "fault-free locality should route work to the preferred shard"
    )

    recover = 0.3
    faults = FaultSchedule(
        events=(
            FaultEvent(seconds=0.0, shard_id=preferred, kind=FAULT_CRASH),
            FaultEvent(seconds=recover, shard_id=preferred, kind=FAULT_RECOVER),
        ),
        retry_budget=2,
        retry_backoff_seconds=0.005,
    )
    report = _cluster(services, engine, **kwargs).serve_trace(
        trace, config=ServingConfig(faults=faults)
    )
    assert report.goodput.served == len(trace)  # nothing lost to the outage
    outage_starts = [
        (shard, start) for shard, start in starts(report) if start < recover
    ]
    assert outage_starts, "fixture should dispatch during the outage window"
    assert all(shard != preferred for shard, _ in outage_starts), (
        "locality dispatch handed work to a crashed shard"
    )
    # Both engines make the same alive-filtered locality choices.
    other = _cluster(
        services, "reference" if engine == "fast" else "fast", **kwargs
    ).serve_trace(trace, config=ServingConfig(faults=faults))
    assert _render(report) == _render(other)


# ------------------------------------------------------ schedule validation
def test_schedule_rejects_crash_while_down():
    with pytest.raises(ValueError):
        FaultSchedule(
            events=(
                FaultEvent(seconds=0.1, shard_id=0, kind=FAULT_CRASH),
                FaultEvent(seconds=0.2, shard_id=0, kind=FAULT_CRASH),
            )
        )


def test_schedule_rejects_recover_while_up():
    with pytest.raises(ValueError):
        FaultSchedule(
            events=(FaultEvent(seconds=0.1, shard_id=0, kind=FAULT_RECOVER),)
        )


def test_schedule_rejects_slowdown_while_down():
    with pytest.raises(ValueError):
        FaultSchedule(
            events=(
                FaultEvent(seconds=0.1, shard_id=0, kind=FAULT_CRASH),
                FaultEvent(seconds=0.2, shard_id=0, kind=FAULT_SLOWDOWN, factor=2.0),
            )
        )


def test_schedule_rejects_out_of_range_shard():
    schedule = FaultSchedule(
        events=(FaultEvent(seconds=0.1, shard_id=7, kind=FAULT_CRASH),)
    )
    with pytest.raises(ValueError):
        schedule.validate_for(num_shards=4)


def test_event_rejects_bad_kind_and_times():
    with pytest.raises(ValueError):
        FaultEvent(seconds=0.1, shard_id=0, kind="meltdown")
    with pytest.raises(ValueError):
        FaultEvent(seconds=-1.0, shard_id=0, kind=FAULT_CRASH)
    with pytest.raises(ValueError):
        FaultEvent(seconds=0.1, shard_id=0, kind=FAULT_SLOWDOWN, factor=0.5)


def test_random_faults_schedule_is_deterministic():
    build = lambda: RandomFaults(  # noqa: E731
        num_shards=4, horizon_seconds=2.0, mean_uptime_seconds=0.3,
        mean_downtime_seconds=0.1, slowdown_probability=0.5, seed=9,
    ).schedule()
    first, second = build(), build()
    assert first.as_dict() == second.as_dict()
    assert any(event.kind == FAULT_CRASH for event in first.events)


def _linear_dead_until(events, shard_id, seconds):
    """Oracle: scan the shard's crash/recover pairs in event order."""
    crash = None
    for event in events:
        if event.shard_id != shard_id:
            continue
        if event.kind == FAULT_CRASH:
            crash = event.seconds
        elif event.kind == FAULT_RECOVER:
            if crash <= seconds < event.seconds:
                return event.seconds
            crash = None
    return math.inf if crash is not None and seconds >= crash else None


def test_dead_until_matches_linear_scan_at_boundaries():
    """Crash instants, recover instants, gaps between outages and an
    unclosed outage, on a shard with several outages plus a neighbour."""
    events = (
        FaultEvent(seconds=1.0, shard_id=0, kind=FAULT_CRASH),
        FaultEvent(seconds=2.0, shard_id=0, kind=FAULT_RECOVER),
        FaultEvent(seconds=2.5, shard_id=1, kind=FAULT_CRASH),
        FaultEvent(seconds=3.0, shard_id=0, kind=FAULT_SLOWDOWN, factor=2.0),
        FaultEvent(seconds=4.0, shard_id=0, kind=FAULT_CRASH),
        FaultEvent(seconds=4.5, shard_id=1, kind=FAULT_RECOVER),
        FaultEvent(seconds=5.0, shard_id=0, kind=FAULT_RECOVER),
        FaultEvent(seconds=7.0, shard_id=0, kind=FAULT_CRASH),
    )
    runtime = FaultSchedule(events=events).runtime(num_shards=3)
    probes = [0.0, 0.999, 1.0, 1.5, 2.0, 2.5, 3.0, 3.999, 4.0, 4.5, 5.0, 6.0, 7.0, 1e9]
    for shard in range(3):
        for seconds in probes:
            assert runtime.dead_until(shard, seconds) == _linear_dead_until(
                events, shard, seconds
            ), (shard, seconds)
    assert runtime.dead_until(0, 1.0) == 2.0
    assert runtime.dead_until(0, 2.0) is None
    assert runtime.dead_until(0, 6.0) is None
    assert runtime.dead_until(0, 7.0) == math.inf
    assert runtime.dead_until(2, 4.0) is None


@settings(max_examples=30, deadline=None)
@given(schedule=random_schedules, probe=st.floats(min_value=0.0, max_value=0.8))
def test_dead_until_matches_linear_scan_on_random_schedules(schedule, probe):
    runtime = schedule.runtime(num_shards=NUM_SHARDS)
    events = schedule.expanded_events
    instants = [probe] + [event.seconds for event in events]
    for shard in range(NUM_SHARDS):
        for seconds in instants:
            assert runtime.dead_until(shard, seconds) == _linear_dead_until(
                events, shard, seconds
            )


def test_random_faults_outages_are_closed():
    """Every crash in a generated schedule has a matching recover."""
    schedule = RandomFaults(
        num_shards=3, horizon_seconds=1.0, mean_uptime_seconds=0.1,
        mean_downtime_seconds=0.05, seed=5,
    ).schedule()
    up = [True] * 3
    for event in schedule.events:
        if event.kind == FAULT_CRASH:
            assert up[event.shard_id]
            up[event.shard_id] = False
        elif event.kind == FAULT_RECOVER:
            assert not up[event.shard_id]
            up[event.shard_id] = True
    assert all(up)


# ------------------------------------------------- tenant-aware autoscaling
def test_tenant_aware_autoscaler_reacts_to_guaranteed_pressure():
    """Guaranteed-tier queue pressure alone triggers scale-up even when the
    global per-shard depth stays below the global threshold."""
    scaler = Autoscaler(
        min_shards=1, max_shards=4, scale_up_depth=100.0, scale_down_depth=0.01,
        hysteresis_observations=2, guaranteed_scale_up_depth=1.0,
    )
    assert scaler.tenant_aware
    scaler.start(0.0)
    scaler.observe(0.01, queue_depth=3, guaranteed_depth=3)
    active = scaler.observe(0.02, queue_depth=3, guaranteed_depth=3)
    assert active == 2


def test_plain_autoscaler_ignores_guaranteed_signal():
    scaler = Autoscaler(
        min_shards=1, max_shards=4, scale_up_depth=100.0, scale_down_depth=0.01,
        hysteresis_observations=2,
    )
    assert not scaler.tenant_aware
    scaler.start(0.0)
    scaler.observe(0.01, queue_depth=3, guaranteed_depth=50)
    active = scaler.observe(0.02, queue_depth=3, guaranteed_depth=50)
    assert active == 1


def test_tenant_aware_scaling_serves_more_guaranteed_traffic(services):
    """End to end: under faults, the guaranteed-pressure signal scales out
    earlier and both engines agree byte-for-byte on the result."""
    streams = [
        OpenLoopArrivals(WORKLOAD_POOL, rate_rps=200.0, seed=11, tenant="ent"),
        OpenLoopArrivals(WORKLOAD_POOL, rate_rps=200.0, seed=12, tenant="free"),
    ]
    trace = merge_traces([stream.trace(25) for stream in streams])
    slo = SLOPolicy(
        default_slo_seconds=0.5,
        per_tenant={"ent": TenantQuota(guaranteed_rps=100.0, weight=2.0)},
    )
    faults = FaultSchedule(
        events=(
            FaultEvent(seconds=0.02, shard_id=0, kind=FAULT_CRASH),
            FaultEvent(seconds=0.15, shard_id=0, kind=FAULT_RECOVER),
        ),
        retry_budget=2,
        retry_backoff_seconds=0.005,
    )

    def run(engine, guaranteed_depth):
        scaler = Autoscaler(
            min_shards=1, max_shards=NUM_SHARDS, scale_up_depth=6.0,
            scale_down_depth=0.5, hysteresis_observations=2,
            guaranteed_scale_up_depth=guaranteed_depth,
        )
        return _cluster(services, engine=engine).serve_online(
            TraceArrivals(trace),
            config=ServingConfig(
                controller=AdmissionController(policy=slo),
                autoscaler=scaler,
                faults=faults,
            ),
        )

    tenant_aware = run("fast", 2.0)
    plain = run("fast", None)
    assert _render(run("reference", 2.0)) == _render(tenant_aware)
    aware_events = len(tenant_aware.scaling_timeline)
    plain_events = len(plain.scaling_timeline)
    assert aware_events >= plain_events
    assert tenant_aware.goodput.offered == tenant_aware.goodput.served + \
        tenant_aware.goodput.shed + tenant_aware.goodput.failed
