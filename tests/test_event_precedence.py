"""Event precedence at timestamp ties: commit < fault < deadline < retry < arrival.

The event loop (``_Run.run`` in :mod:`repro.serving.cluster`) picks the
earliest event in one pass and breaks ties in that order.  Each scenario
below puts two event kinds at one instant, chosen so the order changes the
outcome, and pins the outcome on both backends.  Times are dyadic
fractions, so every sum lands on the tie exactly; a batch's pass time is
measured once and reused as a timestamp where a tie needs it.

Swapping any two adjacent kinds fails a pin, except commit and fault: at
one instant they commute.  A placed batch never straddles a known crash,
so a crash cannot hit a batch that starts then, and both only raise the
drain floor.
"""

import json

import pytest
from conftest import make_profile, profile_with_home

from repro.serving import (
    Autoscaler,
    BatchScheduler,
    ENGINE_FAST,
    ENGINE_REFERENCE,
    FaultEvent,
    FaultSchedule,
    InferenceRequest,
    RequestTrace,
    ServingConfig,
    ShardedServiceCluster,
    TraceArrivals,
)

ENGINES = (ENGINE_REFERENCE, ENGINE_FAST)

#: Batch timeout, retry backoff, and how far into a pass a crash lands.
WAIT = 2.0**-8
BACKOFF = 2.0**-4
INTO_PASS = 2.0**-12


def _trace(profile, times):
    return RequestTrace(
        [
            InferenceRequest(request_id=i, arrival_seconds=t, workload=profile)
            for i, t in enumerate(times)
        ]
    )


def _serve(services, engine, times, *, num_shards, max_batch_size, crashes):
    """Serve ``times`` on CPU shards under crash-only faults (one retry)."""
    faults = FaultSchedule(
        [FaultEvent(seconds=t, shard_id=s, kind="crash") for t, s in crashes],
        retry_budget=1,
        retry_backoff_seconds=BACKOFF,
    )
    return ShardedServiceCluster(
        services["CPU"],
        num_shards=num_shards,
        scheduler=BatchScheduler(max_batch_size=max_batch_size, max_wait_seconds=WAIT),
        engine=engine,
    ).serve_trace(_trace(make_profile("tie"), times), config=ServingConfig(faults=faults))


def _both(run):
    """``run(engine)`` on both backends; the reports must render identically."""
    reports = [run(engine) for engine in ENGINES]
    rendered = {json.dumps(report.as_dict(), sort_keys=True) for report in reports}
    assert len(rendered) == 1
    return reports


def _shards(report):
    return {served.request.request_id: served.shard_id for served in report.served}


@pytest.mark.parametrize("closes_at", ["arrival", "deadline"])
def test_fault_before_arrival_and_deadline(services, closes_at):
    """A crash at a batch's ready instant applies first: the batch never
    picks the dead shard, so nothing counts as migrated.  Dispatched first,
    it would pick shard 0, find it doomed and move (``migrated == 1``)."""
    if closes_at == "arrival":
        times, max_batch_size = [0.5], 1
    else:
        times, max_batch_size = [0.5 - WAIT], 2
    for report in _both(
        lambda engine: _serve(
            services, engine, times, num_shards=2, max_batch_size=max_batch_size,
            crashes=[(0.5, 0)],
        )
    ):
        assert report.faults.migrated == 0
        assert _shards(report) == {0: 1}


def test_deadline_before_retry(services):
    """A batch whose deadline ties with a retry closes first, so the retry
    opens a batch of its own (two batches).  Retried first, it would join
    the open batch and fill it (one batch)."""
    # Request 0's batch closes at WAIT on shard 0 and is killed in flight;
    # its retry lands exactly on request 1's deadline.
    crash = WAIT + INTO_PASS
    for report in _both(
        lambda engine: _serve(
            services, engine, [0.0, INTO_PASS + BACKOFF], num_shards=2,
            max_batch_size=2, crashes=[(crash, 0)],
        )
    ):
        assert report.faults.retried == 1
        assert report.num_requests == 2
        assert report.num_batches == 2


def test_retry_before_arrival(services):
    """A retry that ties with an arrival dispatches first and takes the
    earliest-free live shard; the arrival takes the next one."""
    for report in _both(
        lambda engine: _serve(
            services, engine, [0.0, INTO_PASS + BACKOFF], num_shards=3,
            max_batch_size=1, crashes=[(INTO_PASS, 0)],
        )
    ):
        assert report.faults.retried == 1
        assert _shards(report) == {0: 1, 1: 2}


@pytest.mark.parametrize("burst,completed", [(3, 1), (2, 0)])
def test_commit_before_same_instant_scale_down(services, burst, completed):
    """A planned batch whose start ties with a scale-down commits first: it
    is in flight on the leaving shard (``completed``), not migrated.

    Locality with an infinite spill pins the profile to shard 1 once it is
    active.  Three arrivals at 0 scale 1 -> 2 and queue a second pass
    behind the first on shard 1, starting at exactly one pass time ``d``;
    the arrival at ``d`` scales back down.  With two arrivals at 0 the
    only pass on shard 1 finishes at the scale-down instant: it is done,
    not in flight.
    """
    profile = profile_with_home(home=1, num_candidates=2, batch_size=100)
    d = services["CPU"].replicate().serve(profile).total_seconds

    def run(engine):
        return ShardedServiceCluster(
            services["CPU"],
            num_shards=2,
            scheduler=BatchScheduler(max_batch_size=1),
            policy="locality",
            engine=engine,
        ).serve_online(
            TraceArrivals(_trace(profile, [0.0] * burst + [d])),
            config=ServingConfig(
                autoscaler=Autoscaler(
                    min_shards=1,
                    max_shards=2,
                    scale_up_depth=1.5,
                    scale_down_depth=1.2,
                    hysteresis_observations=1,
                    warmup_seconds=0.0,
                )
            ),
        )

    for report in _both(run):
        down = [e for e in report.scaling_timeline if e.reason == "scale-down"]
        assert [(e.seconds, e.migrated, e.completed) for e in down] == [(d, 0, completed)]
        assert _shards(report)[1] == 1
