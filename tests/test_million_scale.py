"""Million-request fast-engine smoke test (dedicated CI job, not tier-1).

Gated on ``RUN_MILLION=1``: a 1M-request chunked replay plus a full
byte-identity check against the fast engine's event loop (``serve_online``
over ``TraceArrivals``).  This is the scale the
array-native loop exists for — tier-1 covers correctness at small scale;
this job proves the chunked path holds its contract (and a sane wall-clock)
where per-request Python work would dominate.
"""

import json
import os
import time

import pytest
from conftest import chunked_calls

from repro.serving import (
    BatchScheduler,
    ENGINE_FAST,
    OpenLoopArrivals,
    POLICY_LEAST_LOADED,
    ShardedServiceCluster,
    TraceArrivals,
)
from repro.serving.engine import _ChunkedServedLog
from repro.system.service import build_services
from repro.system.workload import WorkloadProfile

pytestmark = pytest.mark.skipif(
    not os.environ.get("RUN_MILLION"),
    reason="1M-request smoke test; set RUN_MILLION=1 (dedicated CI job)",
)

NUM_REQUESTS = 1_000_000
#: Generous machine-independent ceiling; the chunked loop runs this in a few
#: seconds on a laptop, so hitting the ceiling means a >10x regression.
WALL_BUDGET_SECONDS = 120.0


def _cluster(services):
    return ShardedServiceCluster(
        services["DynPre"],
        num_shards=4,
        scheduler=BatchScheduler(max_batch_size=4, max_wait_seconds=0.005),
        policy=POLICY_LEAST_LOADED,
        engine=ENGINE_FAST,
    )


def test_million_request_chunked_replay_smoke():
    services = build_services()
    mix = [WorkloadProfile.from_dataset(key) for key in ("PH", "AX", "MV")]
    trace = OpenLoopArrivals(mix, rate_rps=500.0, seed=1).trace(NUM_REQUESTS)

    started = time.perf_counter()
    with chunked_calls() as calls:
        chunked = _cluster(services).serve_trace(trace)
    chunked_seconds = time.perf_counter() - started
    assert len(calls) == 1
    assert isinstance(chunked.served, _ChunkedServedLog)
    assert chunked.num_requests == NUM_REQUESTS
    assert sum(chunked.shard_requests) == NUM_REQUESTS
    assert chunked_seconds < WALL_BUDGET_SECONDS, (
        f"chunked 1M replay took {chunked_seconds:.1f}s "
        f"(budget {WALL_BUDGET_SECONDS:.0f}s)"
    )

    with chunked_calls() as calls:
        event = _cluster(services).serve_online(TraceArrivals(trace))
    assert calls == []
    assert json.dumps(chunked.as_dict(), sort_keys=True) == json.dumps(
        event.as_dict(), sort_keys=True
    )

    # compact() keeps every summary without materializing 1M records.
    log = chunked.served
    rendered = json.dumps(chunked.compact().as_dict(), sort_keys=True)
    assert log._records is None
    assert rendered == json.dumps(event.as_dict(), sort_keys=True)
