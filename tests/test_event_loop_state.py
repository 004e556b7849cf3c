"""The event loop's next deadline and next arrival, kept as run state.

``_Run`` (:mod:`repro.serving.cluster`) keeps the open batch due next as an
attribute, set when a batch opens and recomputed through the backend only
when that batch closes, and re-peeks a :class:`TraceArrivals` source only
after a pop.  These tests hold the kept deadline to the reference backend's
min-scan after every step, count the peeks, and pin a closed-loop replay
(a source that is peeked at every event) to bytes rendered before the loop
kept either value.
"""

import hashlib
import json
import random

import pytest
from conftest import make_profile

from repro.serving import (
    BatchScheduler,
    ClosedLoopClients,
    ENGINE_FAST,
    ENGINE_REFERENCE,
    FaultEvent,
    FaultSchedule,
    InferenceRequest,
    OpenLoopArrivals,
    RandomFaults,
    RequestTrace,
    ServingConfig,
    ShardedServiceCluster,
    TraceArrivals,
)
from repro.serving import cluster as cluster_module
from repro.serving.engine import ReferenceBackend

ENGINES = (ENGINE_REFERENCE, ENGINE_FAST)

#: Arrival, crash, timeout and backoff grid: dyadic, so every sum is exact
#: and retries land on arrival instants and on each other.
GRID = 2.0**-8


def _render(report):
    return json.dumps(report.as_dict(), sort_keys=True)


@pytest.fixture
def checked_deadlines(monkeypatch):
    """Check ``_Run.expiring`` against the reference min-scan after every
    enqueue and close.

    Yields a tally of the checks and of the batch opens that took the head
    at an equal deadline with a smaller first request id.
    """
    tally = {"checks": 0, "reordered": 0}
    enqueue, close = cluster_module._Run.enqueue, cluster_module._Run.close

    def check(run):
        scan = ReferenceBackend.next_deadline(
            run.backend, run.open_members, run.open_deadline
        )
        assert run.expiring == scan
        tally["checks"] += 1

    def checked_enqueue(run, request, now, key):
        head = run.expiring
        if (
            head is not None
            and key not in run.open_members
            and now + run.max_wait_seconds == head[0]
            and request.request_id < run.open_members[head[1]][0].request_id
        ):
            tally["reordered"] += 1
        enqueue(run, request, now, key)
        check(run)

    def checked_close(run, key, ready_seconds):
        close(run, key, ready_seconds)
        check(run)

    monkeypatch.setattr(cluster_module._Run, "enqueue", checked_enqueue)
    monkeypatch.setattr(cluster_module._Run, "close", checked_close)
    return tally


def _grid_scenario(seed):
    """A tie-heavy faulted replay: grid arrivals over 2-4 batch keys, and
    whole-cluster crashes whose in-flight kills retry onto shared instants."""
    rng = random.Random(seed)
    keys = [
        make_profile(f"key-{k}", batch_size=rng.choice([50, 100, 200]))
        for k in range(rng.randint(2, 4))
    ]
    times = sorted(rng.randrange(48) * GRID for _ in range(rng.randint(20, 60)))
    trace = RequestTrace(
        [InferenceRequest(i, t, rng.choice(keys)) for i, t in enumerate(times)]
    )
    num_shards = 3
    events = []
    t = 0.0
    for _ in range(rng.randint(2, 5)):
        t += rng.randint(4, 16) * GRID
        down = rng.randint(1, 4) * GRID
        for shard_id in range(num_shards):
            events += [
                FaultEvent(t, shard_id, "crash"),
                FaultEvent(t + down, shard_id, "recover"),
            ]
        t += down
    faults = FaultSchedule(
        events, retry_budget=2, retry_backoff_seconds=rng.randint(1, 4) * GRID
    )
    scheduler = BatchScheduler(
        max_batch_size=rng.randint(2, 4), max_wait_seconds=rng.randint(1, 4) * GRID
    )
    return trace, faults, scheduler, num_shards


def test_kept_deadline_matches_the_min_scan(services, checked_deadlines):
    """Seeded differential on both backends: after every batch open and
    close the kept ``(deadline, key)`` equals the reference min-scan, also
    when same-instant retries open batches out of request-id order."""
    for seed in range(24):
        trace, faults, scheduler, num_shards = _grid_scenario(seed)
        rendered = set()
        for engine in ENGINES:
            cluster = ShardedServiceCluster(
                services["CPU"], num_shards=num_shards, scheduler=scheduler,
                engine=engine,
            )
            report = cluster.serve_trace(trace, config=ServingConfig(faults=faults))
            rendered.add(_render(report))
        assert len(rendered) == 1
    assert checked_deadlines["checks"] > 1000
    # The scenarios reach the tie rule: an open at the head's deadline
    # whose first request id is smaller takes the head.
    assert checked_deadlines["reordered"] > 0


@pytest.fixture
def peek_calls(monkeypatch):
    """Count ``TraceArrivals.peek_time`` calls (subclasses' included)."""
    calls = []
    original = TraceArrivals.peek_time

    def spy(source):
        calls.append(source)
        return original(source)

    monkeypatch.setattr(TraceArrivals, "peek_time", spy)
    return calls


def test_trace_replay_peeks_once_per_arrival(services, peek_calls):
    """A fast faulted replay of a ``TraceArrivals`` source peeks it once up
    front and once after each pop, not at every event."""
    trace = OpenLoopArrivals(
        [make_profile("peek-a"), make_profile("peek-b", batch_size=300)],
        rate_rps=400.0,
        seed=3,
    ).trace(300)
    faults = RandomFaults(
        num_shards=3, horizon_seconds=trace[-1].arrival_seconds,
        mean_uptime_seconds=0.1, mean_downtime_seconds=0.05,
        retry_backoff_seconds=0.002, seed=5,
    ).schedule()
    cluster = ShardedServiceCluster(
        services["DynPre"], num_shards=3,
        scheduler=BatchScheduler(max_batch_size=3, max_wait_seconds=0.004),
        engine=ENGINE_FAST,
    )
    report = cluster.serve_trace(trace, config=ServingConfig(faults=faults))
    assert report.faults.retried > 0
    assert len(peek_calls) <= len(trace) + 1


def test_only_a_pure_replay_skips_the_per_event_peek(services):
    """A source that hears sheds or completions may move its next arrival
    between pops, so only a plain ``TraceArrivals`` is peeked after pops."""

    class HearsSheds(TraceArrivals):
        def on_shed(self, request, shed_seconds):
            pass

    trace = OpenLoopArrivals([make_profile()], rate_rps=100.0).trace(4)
    cluster = ShardedServiceCluster(services["CPU"], num_shards=1)
    clients = ClosedLoopClients([make_profile()], num_clients=2, max_requests=4)
    sources = [(TraceArrivals(trace), True), (HearsSheds(trace), False), (clients, False)]
    for source, replays in sources:
        run = cluster_module._Run(cluster, source, ServingConfig())
        assert run.replays_source is replays


#: SHA-256 of the closed-loop renders below, taken before the loop kept its
#: next deadline and next arrival as run state (same on both backends).
CLOSED_LOOP_DIGESTS = {
    False: "18869b51bca306f740e2163f1b12e12778c32a006a32e344d546c42ae277533f",
    True: "834233bd30ea007382da20ac70b46b21044f11112bc45ec99fc98256004b6410",
}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("with_faults", [False, True], ids=["fault-free", "faulted"])
def test_closed_loop_replay_keeps_its_bytes(services, engine, with_faults):
    """Completions feed the clients' next arrivals and failed requests come
    back as sheds, so this source is peeked at every event."""
    mix = [make_profile("closed-a"), make_profile("closed-b", batch_size=300)]
    clients = ClosedLoopClients(
        mix, num_clients=6, think_seconds=0.002, seed=5, max_requests=80,
        retry_backoff_seconds=0.01,
    )
    faults = (
        RandomFaults(
            num_shards=3, horizon_seconds=0.5, mean_uptime_seconds=0.05,
            mean_downtime_seconds=0.02, retry_budget=1,
            retry_backoff_seconds=0.004, seed=11,
        ).schedule()
        if with_faults
        else None
    )
    cluster = ShardedServiceCluster(
        services["DynPre"], num_shards=3,
        scheduler=BatchScheduler(max_batch_size=3, max_wait_seconds=0.004),
        engine=engine,
    )
    report = cluster.serve_online(clients, config=ServingConfig(faults=faults))
    if with_faults:
        assert report.goodput.failed > 0
    digest = hashlib.sha256(_render(report).encode()).hexdigest()
    assert digest == CLOSED_LOOP_DIGESTS[with_faults]
