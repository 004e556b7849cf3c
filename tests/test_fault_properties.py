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
4. *Parking*: parked work is a FIFO woken at fault instants, so dispatch
   attempts stay linear in batches plus fault events, and a woken batch is
   dispatched against the live set at its wake instant.  A standby that
   starts substituting pays its activation warm-up first.
"""

import dataclasses
import json
import math
import random

import numpy as np
import pytest
from conftest import WORKLOAD_POOL
from hypothesis import given, settings, strategies as st

from repro.serving import (
    Autoscaler,
    BatchScheduler,
    ClusterTopology,
    CorrelatedFaults,
    DISPATCH_POLICIES,
    ENGINES,
    FAULT_CRASH,
    FAULT_RECOVER,
    FAULT_SLOWDOWN,
    FaultEvent,
    FaultSchedule,
    InferenceRequest,
    OpenLoopArrivals,
    RandomFaults,
    RequestBatch,
    RequestTrace,
    ServingConfig,
    ShardedServiceCluster,
    SLOPolicy,
    TraceArrivals,
)
from repro.serving.cluster import _Run
from repro.serving.faults import (
    DISPATCH_MOVED,
    DISPATCH_PARKED,
    DISPATCH_PLACED,
    FaultRuntime,
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
        config=ServingConfig(slo=slo, admit=True, faults=faults),
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
                slo=slo, admit=True,
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


# ------------------------------------------------------------------ parking
class _FakeRun:
    """Minimal run over a busy list: least-loaded pick, 0.5 s service."""

    #: Its picks are least-loaded, so the runtime may walk them in order.
    least_loaded = True

    def __init__(self, busy, commits, active_count):
        self.busy = busy
        self.busy_total = [0.0] * len(busy)
        self.commits = commits
        self.active_count = active_count

    def set_busy(self, shard_id, seconds):
        self.busy[shard_id] = seconds

    hold = set_busy

    def merged(self, batch):
        return None

    def pick_among(self, batch, candidates):
        return min(candidates, key=lambda s: (self.busy[s], s))

    def serve(self, shard_id, workload):
        return None, 0.5

    def place(self, batch, shard_id, start, duration, report, finish):
        self.set_busy(shard_id, finish)
        self.commits.append((shard_id, batch.ready_seconds, start))

    def on_failed(self, request, seconds):
        pass


def test_parked_batch_wakes_at_the_fault_instant_on_the_live_set():
    """One active shard (0) and two standbys.  At t=2 shard 0 is down and
    the only live standby (1) is queued past its own crash at t=3, so the
    batch parks.  Standby 2 recovers at t=4: the batch is woken then, with
    ``ready`` moved to the wake instant, and starts on shard 2 while shard 0
    is still down (it recovers at t=5) -- not at some later horizon when
    the standby no longer substitutes for anything."""
    schedule = FaultSchedule(
        events=(
            FaultEvent(seconds=0.5, shard_id=2, kind=FAULT_CRASH),
            FaultEvent(seconds=1.0, shard_id=0, kind=FAULT_CRASH),
            FaultEvent(seconds=3.0, shard_id=1, kind=FAULT_CRASH),
            FaultEvent(seconds=4.0, shard_id=2, kind=FAULT_RECOVER),
            FaultEvent(seconds=5.0, shard_id=0, kind=FAULT_RECOVER),
            FaultEvent(seconds=20.0, shard_id=1, kind=FAULT_RECOVER),
        ),
    )
    runtime = schedule.runtime(3)
    busy = [0.0, 4.0, 0.0]
    commits = []
    run = _FakeRun(busy, commits, active_count=1)
    request = InferenceRequest(
        request_id=0, arrival_seconds=2.0, workload=WORKLOAD_POOL[0]
    )
    runtime.advance(run, 2.0)
    runtime.submit(RequestBatch(requests=[request], ready_seconds=2.0), run)
    assert list(runtime.parked) and runtime.backlog_count() == 1
    assert commits == []
    for instant in (3.0, 4.0, 5.0, 20.0):
        runtime.advance(run, instant)
    # (shard, ready, start): woken at t=4 and started on standby shard 2
    # before shard 0 recovers at t=5.
    assert commits == [(2, 4.0, 4.0)]
    assert runtime.backlog_count() == 0
    assert runtime.migrated == 1


def test_substituting_standby_pays_its_activation_warmup():
    """One active shard and one standby, 0.3 s warm-up each.  Shard 0
    crashes at t=1: standby 1 starts substituting and, like a scale-up
    join, takes work only once warm (t=1.3).  Shard 0 recovers at t=2 and
    rejoins under the recover rule, with no warm-up."""
    schedule = FaultSchedule(
        events=(
            FaultEvent(seconds=1.0, shard_id=0, kind=FAULT_CRASH),
            FaultEvent(seconds=2.0, shard_id=0, kind=FAULT_RECOVER),
        ),
    )
    runtime = schedule.runtime(2, warmup=(0.3, 0.3))
    busy = [0.5, 0.0]
    commits = []
    run = _FakeRun(busy, commits, active_count=1)

    def batch(request_id, ready):
        request = InferenceRequest(
            request_id=request_id, arrival_seconds=ready, workload=WORKLOAD_POOL[0]
        )
        return RequestBatch(requests=[request], ready_seconds=ready)

    runtime.advance(run, 1.0)
    assert busy == [0.5, 1.3]
    runtime.submit(batch(0, 1.0), run)
    runtime.advance(run, 2.0)
    assert busy == [2.0, 1.8]
    runtime.submit(batch(1, 2.0), run)
    # (shard, ready, start)
    assert commits == [(1, 1.0, 1.3), (0, 2.0, 2.0)]


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16),
       fault_seed=st.integers(min_value=0, max_value=2**16))
def test_dispatch_attempts_are_linear_in_batches_and_faults(services, seed, fault_seed):
    """At ~0.9 load under random outages, dispatch attempts stay linear in
    batches plus fault events.  Each batch the loop forms is submitted once
    and dispatched at most once from there; a parked batch is retried only
    at a flush, and a flush stops at the first batch that parks again.  So
    ``wakes <= formed`` (``wakes``: flush attempts that did not park),
    ``reparks <= flushes``, there is at most one flush per applied fault
    instant, and ``calls <= formed + wakes + reparks``."""
    trace = _trace(seed, num_requests=400, rate_rps=140.0)
    faults = RandomFaults(
        num_shards=NUM_SHARDS,
        horizon_seconds=trace[-1].arrival_seconds,
        mean_uptime_seconds=0.3,
        mean_downtime_seconds=0.15,
        retry_budget=2,
        retry_backoff_seconds=0.01,
        seed=fault_seed,
    ).schedule()
    counts = {"formed": 0, "calls": 0, "wakes": 0, "reparks": 0, "flushes": 0}
    in_flush = [False]
    submit, dispatch, flush = FaultRuntime.submit, FaultRuntime.dispatch, FaultRuntime.flush

    def counted_submit(self, *args, **kwargs):
        counts["formed"] += 1
        submit(self, *args, **kwargs)

    def counted_dispatch(self, *args, **kwargs):
        counts["calls"] += 1
        outcome = dispatch(self, *args, **kwargs)
        if in_flush[0]:
            counts["reparks" if outcome == DISPATCH_PARKED else "wakes"] += 1
        return outcome

    def counted_flush(self, *args, **kwargs):
        counts["flushes"] += 1
        in_flush[0] = True
        try:
            flush(self, *args, **kwargs)
        finally:
            in_flush[0] = False

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FaultRuntime, "submit", counted_submit)
        patch.setattr(FaultRuntime, "dispatch", counted_dispatch)
        patch.setattr(FaultRuntime, "flush", counted_flush)
        report = _cluster(services).serve_trace(trace, config=ServingConfig(faults=faults))
    assert report.goodput.offered == len(trace)
    assert counts["calls"] <= counts["formed"] + counts["wakes"] + counts["reparks"], counts
    assert counts["wakes"] <= counts["formed"], counts
    assert counts["reparks"] <= counts["flushes"], counts
    assert counts["flushes"] <= len({e.seconds for e in faults.expanded_events}), counts


# ------------------------------------------------------- per-epoch tables
_TABLE_SCENARIOS = ("offline", "autoscaled", "topology-standby", "oblivious")


@settings(max_examples=30, deadline=None)
@given(
    scenario=st.sampled_from(_TABLE_SCENARIOS),
    policy=st.sampled_from(DISPATCH_POLICIES),
    engine=st.sampled_from(ENGINES),
    seed=st.integers(min_value=0, max_value=2**16),
    fault_seed=st.integers(min_value=0, max_value=2**16),
    up=st.sampled_from([0.02, 0.05, 0.2]),
    down=st.sampled_from([0.01, 0.05, 0.15]),
)
def test_per_epoch_tables_match_fresh_schedule_queries(
    services, scenario, policy, engine, seed, fault_seed, up, down
):
    """The runtime's per-epoch tables equal fresh computations at every
    dispatch: the memoized live set equals :meth:`FaultRuntime.live_set`,
    and each live candidate's first unapplied crash equals
    ``next_crash_after(shard, ready)``.  Covers random schedules offline,
    under an autoscaler that moves ``active_count``, on a topology whose
    correlated outages force standby substitution, and fault-oblivious."""
    num_shards = 4
    topology = ClusterTopology.uniform(num_shards, 2) if scenario == "topology-standby" else None
    trace = _trace(seed, num_requests=60, rate_rps=400.0)
    faults = RandomFaults(
        num_shards=num_shards,
        horizon_seconds=trace[-1].arrival_seconds,
        mean_uptime_seconds=up,
        mean_downtime_seconds=down,
        slowdown_probability=0.3,
        retry_budget=2,
        retry_backoff_seconds=0.002,
        seed=fault_seed,
        topology=topology,
        correlated=(
            CorrelatedFaults(mean_uptime_seconds=0.05, mean_downtime_seconds=0.03)
            if topology is not None
            else None
        ),
    ).schedule()
    if scenario == "oblivious":
        faults = dataclasses.replace(faults, fault_aware=False)
    cluster = ShardedServiceCluster(
        services["DynPre"],
        num_shards=num_shards,
        scheduler=BatchScheduler(max_batch_size=3, max_wait_seconds=0.003),
        policy=policy,
        engine=engine,
        topology=topology,
    )
    checked = []
    dispatch = FaultRuntime.dispatch

    def checked_dispatch(self, batch, run):
        live = self.live_set(run.active_count)
        assert self.active_alive(run.active_count) == live
        for shard in live:
            assert self._next_crash[shard] == self.next_crash_after(
                shard, batch.ready_seconds
            )
        checked.append(batch.ready_seconds)
        return dispatch(self, batch, run)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FaultRuntime, "dispatch", checked_dispatch)
        if scenario in ("autoscaled", "topology-standby"):
            autoscaler = Autoscaler(
                min_shards=1,
                max_shards=num_shards,
                scale_up_depth=3.0,
                scale_down_depth=1.0,
                hysteresis_observations=2,
            )
            report = cluster.serve_online(
                TraceArrivals(trace),
                config=ServingConfig(autoscaler=autoscaler, faults=faults),
            )
        else:
            report = cluster.serve_trace(trace, config=ServingConfig(faults=faults))
    assert checked
    assert report.goodput.offered == len(trace)


@settings(max_examples=15, deadline=None)
@given(
    with_topology=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
    fault_seed=st.integers(min_value=0, max_value=2**16),
)
def test_least_loaded_walk_matches_reference_re_picks(
    services, with_topology, seed, fault_seed
):
    """Least-loaded fault dispatch, topology or not: the fast backend's one
    ordered walk over the live candidates renders the bytes the reference's
    repeated ``pick_among`` does, and the fast run really walks."""
    num_shards = 4
    topology = ClusterTopology.uniform(num_shards, 2) if with_topology else None
    trace = _trace(seed, num_requests=60, rate_rps=400.0)
    faults = RandomFaults(
        num_shards=num_shards,
        horizon_seconds=trace[-1].arrival_seconds,
        mean_uptime_seconds=0.03,
        mean_downtime_seconds=0.05,
        retry_budget=2,
        retry_backoff_seconds=0.002,
        seed=fault_seed,
        topology=topology,
        correlated=(
            CorrelatedFaults(mean_uptime_seconds=0.05, mean_downtime_seconds=0.03)
            if topology is not None
            else None
        ),
    ).schedule()
    walked = {}
    dispatch = FaultRuntime.dispatch

    def spied_dispatch(self, batch, run):
        walked.setdefault(run.backend.batch_columns, set()).add(run.least_loaded)
        return dispatch(self, batch, run)

    def run(engine):
        cluster = ShardedServiceCluster(
            services["DynPre"],
            num_shards=num_shards,
            scheduler=BatchScheduler(max_batch_size=3, max_wait_seconds=0.003),
            engine=engine,
            topology=topology,
        )
        return cluster.serve_trace(trace, config=ServingConfig(faults=faults))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FaultRuntime, "dispatch", spied_dispatch)
        reference, fast = run("reference"), run("fast")
    assert _render(reference) == _render(fast)
    assert walked == {False: {False}, True: {True}}


class _PickRun:
    """Least-loaded run over a busy list whose serves take no time, so a
    dispatch's only effect is its pick: ``placed`` records ``(shard, start)``."""

    least_loaded = True

    def __init__(self, busy, active_count):
        self.busy = busy
        self.active_count = active_count
        self.placed = []

    def set_busy(self, shard_id, seconds):
        self.busy[shard_id] = seconds

    def merged(self, batch):
        return None

    def serve(self, shard_id, workload):
        return None, 0.0

    def place(self, batch, shard_id, start, duration, report, finish):
        self.placed.append((shard_id, start))


def _sorted_walk(live, busy, next_crash, ready):
    """Oracle: the least-loaded fault walk as a sort in ``(busy, id)``
    order, stopping at the first shard whose next crash falls after its
    start.  Returns ``(shard or None, outcome)``."""
    outcome = DISPATCH_PLACED
    for shard_id in sorted(live, key=lambda s: (busy[s], s)):
        start = max(ready, busy[shard_id])
        crash_at = next_crash[shard_id]
        if crash_at is None or crash_at > start:
            return shard_id, outcome
        outcome = DISPATCH_MOVED
    return None, DISPATCH_PARKED


def test_one_pass_pick_matches_the_sorted_walk():
    """The one-pass least-loaded pick returns the shard and the
    ``PLACED``/``MOVED``/``PARKED`` outcome of the sorted ``(busy, id)``
    walk.  Seeded draws force ties: busy horizons and ready times come
    from a few values, next crashes are None, equal to the start (doomed),
    just before or just after it, and live sets hold 1-8 shards in any
    order (a topology's live set is not sorted by id)."""
    rng = random.Random(2024)
    num_shards = 8
    outcomes = set()
    for _ in range(3000):
        runtime = FaultSchedule().runtime(num_shards)
        busy = [rng.choice((0.0, 1.0, 2.0, 3.0)) for _ in range(num_shards)]
        ready = rng.choice((0.0, 1.0, 1.5, 2.0))
        live = rng.sample(range(num_shards), rng.randint(1, num_shards))
        next_crash = []
        for shard_id in range(num_shards):
            start = max(ready, busy[shard_id])
            next_crash.append(
                rng.choice((None, start, start - 0.5, start + 0.5, start + 4.0))
            )
        runtime._next_crash = list(next_crash)
        runtime._live_sets[num_shards] = live
        run = _PickRun(list(busy), num_shards)
        request = InferenceRequest(
            request_id=0, arrival_seconds=ready, workload=WORKLOAD_POOL[0]
        )
        outcome = runtime.dispatch(RequestBatch(requests=[request], ready_seconds=ready), run)
        expected_shard, expected_outcome = _sorted_walk(live, busy, next_crash, ready)
        assert outcome == expected_outcome, (live, busy, next_crash, ready)
        if expected_shard is None:
            assert run.placed == []
        else:
            assert run.placed == [(expected_shard, max(ready, busy[expected_shard]))]
        outcomes.add(outcome)
    assert outcomes == {DISPATCH_PLACED, DISPATCH_MOVED, DISPATCH_PARKED}


def test_report_time_degraded_count_matches_per_commit_rule():
    """The fast backend's report-time count of degraded-window completions
    (:meth:`FaultRuntime.note_batches`) applies :meth:`degraded_at`, the
    reference's per-commit rule, to every batch: window edges included
    (a window holds its start, not its end), overlapping outages merged
    and an outage left open to the end of the run."""
    schedule = FaultSchedule(
        events=(
            FaultEvent(seconds=1.0, shard_id=0, kind=FAULT_CRASH),
            FaultEvent(seconds=1.5, shard_id=1, kind=FAULT_CRASH),
            FaultEvent(seconds=2.0, shard_id=0, kind=FAULT_RECOVER),
            FaultEvent(seconds=2.5, shard_id=1, kind=FAULT_RECOVER),
            FaultEvent(seconds=4.0, shard_id=2, kind=FAULT_CRASH),
        ),
    )
    rng = random.Random(7)
    edges = [0.0, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 9.0]
    finish = [rng.choice(edges) + rng.choice((0.0, 0.0, 0.25, -0.25)) for _ in range(400)]
    counts = [rng.randint(1, 3) for _ in finish]
    met = [rng.random() < 0.7 for _ in range(sum(counts))]
    runtime = schedule.runtime(3)
    runtime.note_batches(np.array(finish), np.array(counts), np.array(met))
    served = slo_met = position = 0
    for seconds, count in zip(finish, counts):
        if runtime.degraded_at(seconds):
            served += count
            slo_met += sum(met[position:position + count])
        position += count
    assert 0 < served < sum(counts)
    assert (runtime.served_degraded, runtime.slo_met_degraded) == (served, slo_met)


def test_faulted_fast_replay_keeps_no_busy_entry_per_batch(services):
    """Under faults every pick reads the busy list, so the fast backend's
    shard heap must not grow with the batches: after a few thousand
    requests it still holds its one initial entry per shard."""
    trace = _trace(5, num_requests=3000, rate_rps=400.0)
    faults = RandomFaults(
        num_shards=NUM_SHARDS,
        horizon_seconds=trace[-1].arrival_seconds,
        mean_uptime_seconds=1.0,
        mean_downtime_seconds=0.2,
        seed=1,
    ).schedule()
    run = _Run(_cluster(services), TraceArrivals(trace), ServingConfig(faults=faults))
    report = run.run()
    assert report.num_batches > 10 * NUM_SHARDS
    assert report.faults.migrated > 0
    assert len(run.backend.heap._heap) <= NUM_SHARDS


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


_RANDOM_FAULTS = dict(
    num_shards=2, horizon_seconds=1.0, mean_uptime_seconds=0.3, mean_downtime_seconds=0.1
)
_CORRELATED = dict(mean_uptime_seconds=0.3, mean_downtime_seconds=0.1)


def _build(kind, field, value):
    if kind == "event":
        return FaultEvent(seconds=0.1, shard_id=0, kind=FAULT_SLOWDOWN, **{field: value})
    if kind == "schedule":
        return FaultSchedule(**{field: value})
    if kind == "correlated":
        return CorrelatedFaults(**{**_CORRELATED, field: value})
    return RandomFaults(**{**_RANDOM_FAULTS, field: value})


@pytest.mark.parametrize(
    "kind, field",
    [
        ("event", "factor"),
        ("schedule", "retry_backoff_seconds"),
        ("schedule", "retry_budget"),
        ("correlated", "mean_uptime_seconds"),
        ("correlated", "mean_downtime_seconds"),
        ("random", "num_shards"),
        ("random", "horizon_seconds"),
        ("random", "mean_uptime_seconds"),
        ("random", "mean_downtime_seconds"),
        ("random", "slowdown_probability"),
        ("random", "slowdown_factor"),
        ("random", "retry_budget"),
        ("random", "retry_backoff_seconds"),
    ],
)
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_fault_inputs_reject_non_finite_values(kind, field, value):
    """Every numeric fault input rejects NaN and infinity at construction,
    with a message naming the field, instead of building an empty
    schedule, a NaN duration or an event-time error inside ``schedule()``."""
    with pytest.raises(ValueError, match=field.replace("_", "[_ ]")):
        _build(kind, field, value)


@pytest.mark.parametrize(
    "kind, field, value",
    [
        ("schedule", "retry_budget", 1.5),
        ("random", "retry_budget", 2.0),
        ("random", "num_shards", 2.5),
    ],
)
def test_fault_counts_reject_non_integers(kind, field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        _build(kind, field, value)


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
