"""Batch-formation boundary conditions: ``schedule`` vs the array-level plan.

The chunked engine consumes :meth:`BatchScheduler.schedule_arrays` directly
and ``schedule_fast`` is a thin wrapper over it, so a tie-break divergence
from the reference ``schedule`` sweep would silently skew *every* fast-engine
run.  These tests pin the boundaries where such a bug would first appear:
``max_wait_seconds=0`` (the opener-joins-own-batch clamp), duplicated
arrival timestamps, an arrival exactly on a batching deadline (timer fires
first), and a batch filling to the cap on the same tick its deadline
expires.
"""

import json
import random
import time

import numpy as np
import pytest
from conftest import chunked_calls, make_profile
from hypothesis import given, settings, strategies as st

from repro.serving import (
    BatchScheduler,
    InferenceRequest,
    RequestTrace,
    ShardedServiceCluster,
    TraceArrivals,
)


def _trace(arrivals, workloads):
    return RequestTrace(
        [
            InferenceRequest(request_id=i, arrival_seconds=t, workload=w)
            for i, (t, w) in enumerate(zip(arrivals, workloads))
        ]
    )


def _assert_same_batches(scheduler, trace):
    reference = scheduler.schedule(trace)
    fast = scheduler.schedule_fast(trace)
    assert len(reference) == len(fast)
    for ref_batch, fast_batch in zip(reference, fast):
        assert ref_batch.ready_seconds == fast_batch.ready_seconds
        assert [r.request_id for r in ref_batch.requests] == [
            r.request_id for r in fast_batch.requests
        ]


class TestBoundaryPins:
    def test_zero_wait_duplicate_arrivals(self):
        """wait=0: each opener closes its own batch; duplicates don't merge."""
        w = make_profile()
        scheduler = BatchScheduler(max_batch_size=4, max_wait_seconds=0.0)
        trace = _trace([0.0, 0.0, 0.0, 1.0, 1.0], [w] * 5)
        _assert_same_batches(scheduler, trace)
        batches = scheduler.schedule_fast(trace)
        assert [len(b) for b in batches] == [1, 1, 1, 1, 1]

    def test_zero_wait_cap_one(self):
        w = make_profile()
        scheduler = BatchScheduler(max_batch_size=1, max_wait_seconds=0.0)
        trace = _trace([0.0, 0.0, 0.5], [w] * 3)
        _assert_same_batches(scheduler, trace)

    def test_arrival_exactly_at_deadline_starts_next_batch(self):
        """The timer fires before a same-instant arrival (left bisection)."""
        w = make_profile()
        scheduler = BatchScheduler(max_batch_size=4, max_wait_seconds=0.005)
        trace = _trace([0.0, 0.003, 0.005, 0.006], [w] * 4)
        _assert_same_batches(scheduler, trace)
        batches = scheduler.schedule_fast(trace)
        assert [len(b) for b in batches] == [2, 2]
        assert batches[0].ready_seconds == 0.005
        assert [r.request_id for r in batches[1].requests] == [2, 3]

    def test_cap_fill_on_deadline_tick(self):
        """Batch reaches the cap by arrivals strictly inside the window."""
        w = make_profile()
        scheduler = BatchScheduler(max_batch_size=3, max_wait_seconds=0.010)
        trace = _trace([0.0, 0.004, 0.008, 0.009], [w] * 4)
        _assert_same_batches(scheduler, trace)
        batches = scheduler.schedule_fast(trace)
        # Cap closes at the filling member's arrival, not the deadline.
        assert batches[0].ready_seconds == 0.008
        assert len(batches[0]) == 3

    def test_cap_equals_boundary_tie(self):
        """Exactly ``cap`` arrivals inside the window: size close wins."""
        w = make_profile()
        scheduler = BatchScheduler(max_batch_size=2, max_wait_seconds=0.005)
        trace = _trace([0.0, 0.002, 0.005, 0.0055], [w] * 4)
        _assert_same_batches(scheduler, trace)
        batches = scheduler.schedule_fast(trace)
        assert batches[0].ready_seconds == 0.002
        assert len(batches[0]) == 2

    def test_cap_beyond_the_trace_and_int64(self):
        """A cap larger than the trace (even than int64) never fills: each
        batch closes on its timer."""
        w = make_profile()
        trace = _trace([0.0, 0.001, 0.001, 0.004], [w] * 4)
        for cap in (4, 5, 2**62, 2**70):
            scheduler = BatchScheduler(max_batch_size=cap, max_wait_seconds=0.003)
            _assert_same_batches(scheduler, trace)
            batches = scheduler.schedule_fast(trace)
            assert [b.ready_seconds for b in batches] == [0.003, 0.007]

    def test_duplicate_arrivals_split_across_keys(self):
        a, b = make_profile("a"), make_profile("b", batch_size=7)
        scheduler = BatchScheduler(max_batch_size=2, max_wait_seconds=0.001)
        trace = _trace([0.0, 0.0, 0.0, 0.0], [a, b, a, b])
        _assert_same_batches(scheduler, trace)

    def test_same_instant_size_closures_follow_the_closing_arrival(self):
        """Two batches filling at one instant close in the order their
        filling requests arrive, not by their first member's id."""
        a, b = make_profile("a"), make_profile("b", batch_size=7)
        scheduler = BatchScheduler(max_batch_size=2, max_wait_seconds=0.010)
        trace = _trace([0.0, 0.0005, 0.001, 0.001], [b, a, a, b])
        _assert_same_batches(scheduler, trace)
        batches = scheduler.schedule_fast(trace)
        assert [[r.request_id for r in batch.requests] for batch in batches] == [
            [1, 2],
            [0, 3],
        ]


class TestBatchPlanStructure:
    def test_plan_rows_consistent(self):
        w = make_profile(batch_size=5)
        scheduler = BatchScheduler(max_batch_size=3, max_wait_seconds=0.002)
        trace = _trace([0.0, 0.0005, 0.001, 0.01, 0.0101], [w] * 5)
        plan = scheduler.schedule_arrays(trace)
        assert plan.num_batches == len(plan.ready_seconds)
        assert plan.batch_offsets[0] == 0
        assert plan.batch_offsets[-1] == len(plan.member_positions)
        # Every trace position appears exactly once across the batches.
        assert sorted(plan.member_positions.tolist()) == list(range(5))
        # Merged size is the member count times the uniform profile size.
        counts = np.diff(plan.batch_offsets)
        assert (plan.merged_sizes == counts * 5).all()
        # Rows are in closing order: ready is sorted.
        ready = plan.ready_seconds
        assert (ready[:-1] <= ready[1:]).all()

    def test_fair_mode_raises(self):
        scheduler = BatchScheduler(
            max_batch_size=2, max_wait_seconds=0.001, tenant_weights={"a": 1.0}
        )
        trace = _trace([0.0], [make_profile()])
        for schedule in (scheduler.schedule, scheduler.schedule_fast, scheduler.schedule_arrays):
            with pytest.raises(ValueError, match="fair"):
                schedule(trace)

    def test_empty_trace_plan(self):
        plan = BatchScheduler(max_batch_size=2).schedule_arrays(RequestTrace([]))
        assert plan.num_batches == 0
        assert len(plan.member_positions) == 0
        assert plan.batch_offsets.tolist() == [0]


#: The many-key fuzz draws its cases from this seed until the wall-clock
#: budget is spent (at least ``MANY_KEY_MIN_CASES``, at most
#: ``MANY_KEY_MAX_CASES``), so every case a run checks is reproducible.
MANY_KEY_SEED = 20261019
MANY_KEY_BUDGET_SECONDS = 3.0
MANY_KEY_MIN_CASES = 10
MANY_KEY_MAX_CASES = 200


class TestTieHeavyFuzz:
    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        cap=st.integers(min_value=1, max_value=4),
        wait=st.sampled_from([0.0, 0.001, 0.002, 0.01]),
        num_requests=st.integers(min_value=1, max_value=40),
    )
    def test_duplicate_grid_fuzz(self, seed, cap, wait, num_requests):
        """Arrivals on a coarse grid force deadline/arrival/cap collisions."""
        rng = random.Random(seed)
        profiles = [make_profile("a"), make_profile("b", batch_size=3)]
        arrivals = sorted(rng.choice(range(12)) * 1e-3 for _ in range(num_requests))
        workloads = [rng.choice(profiles) for _ in range(num_requests)]
        scheduler = BatchScheduler(max_batch_size=cap, max_wait_seconds=wait)
        _assert_same_batches(scheduler, _trace(arrivals, workloads))

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        cap=st.integers(min_value=1, max_value=4),
        wait=st.sampled_from([0.0, 0.001, 0.002, 0.01]),
        num_requests=st.integers(min_value=1, max_value=30),
        num_shards=st.integers(min_value=1, max_value=3),
    )
    def test_duplicate_grid_replays_agree(
        self, services, seed, cap, wait, num_requests, num_shards
    ):
        """On tie-heavy traces the reference replay (event loop), the fast
        replay (chunked loop) and the fast online loop render one report."""
        rng = random.Random(seed)
        # Different graph sizes: batches differ in service time, so any
        # dispatch-order difference shows in the sojourns.
        profiles = [make_profile("a"), make_profile("b", num_nodes=90_000, batch_size=3)]
        arrivals = sorted(rng.choice(range(12)) * 1e-3 for _ in range(num_requests))
        workloads = [rng.choice(profiles) for _ in range(num_requests)]
        trace = _trace(arrivals, workloads)
        scheduler = BatchScheduler(max_batch_size=cap, max_wait_seconds=wait)

        def cluster(engine):
            return ShardedServiceCluster(
                services["CPU"], num_shards=num_shards, scheduler=scheduler, engine=engine
            )

        reports = [
            cluster("reference").serve_trace(trace),
            cluster("fast").serve_trace(trace),
            cluster("fast").serve_online(TraceArrivals(trace)),
        ]
        rendered = [json.dumps(report.as_dict(), sort_keys=True) for report in reports]
        assert rendered[0] == rendered[1] == rendered[2]

    def test_many_key_grid_fuzz(self, services):
        """2-6 compatibility keys, up to 200 arrivals on a coarse grid,
        ``cap`` 1-4 and ``wait`` down to 0: several per-key batch chains
        interleave.  ``schedule_fast`` equals ``schedule`` batch for batch,
        and the reference replay, the chunked replay and the fast online
        loop render one report."""
        rng = random.Random(MANY_KEY_SEED)
        deadline = time.perf_counter() + MANY_KEY_BUDGET_SECONDS
        cases = 0
        while cases < MANY_KEY_MAX_CASES and (
            cases < MANY_KEY_MIN_CASES or time.perf_counter() < deadline
        ):
            cases += 1
            num_keys = rng.randint(2, 6)
            # Two batch sizes per key: slots share a key, so a batch's
            # merged size depends on which members it took.  Graph sizes
            # differ per key, so service times (and picks) differ too.
            profiles = [
                make_profile(f"k{key}", num_nodes=50_000 + 20_000 * key, batch_size=size)
                for key in range(num_keys)
                for size in (rng.choice((1, 3)), rng.choice((50, 100)))
            ]
            num_requests = rng.randint(1, 200)
            arrivals = sorted(rng.randrange(40) * 1e-3 for _ in range(num_requests))
            workloads = [rng.choice(profiles) for _ in range(num_requests)]
            trace = _trace(arrivals, workloads)
            scheduler = BatchScheduler(
                max_batch_size=rng.randint(1, 4),
                max_wait_seconds=rng.choice((0.0, 0.001, 0.002, 0.01)),
            )
            _assert_same_batches(scheduler, trace)
            name = rng.choice(("CPU", "DynPre"))
            num_shards = rng.randint(1, 3)

            def cluster(engine):
                return ShardedServiceCluster(
                    services[name], num_shards=num_shards, scheduler=scheduler, engine=engine
                )

            with chunked_calls() as calls:
                chunked = cluster("fast").serve_trace(trace)
            assert len(calls) == 1
            reports = [
                cluster("reference").serve_trace(trace),
                chunked,
                cluster("fast").serve_online(TraceArrivals(trace)),
            ]
            rendered = [json.dumps(report.as_dict(), sort_keys=True) for report in reports]
            assert rendered[0] == rendered[1] == rendered[2], f"case {cases}"
