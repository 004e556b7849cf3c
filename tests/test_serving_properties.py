"""Property-based tests of the serving layer's two headline contracts.

1. *Identity*: a 1-shard cluster with batch size 1 reproduces
   ``GNNService.serve_many`` report-for-report, for every compared system
   and any workload sequence — the cluster is a strict generalisation of
   the sequential service.
2. *Scaling monotonicity*: on a fixed trace with least-loaded dispatch and a
   state-independent system, throughput never decreases when shards are
   added (greedy earliest-free assignment without precedence constraints is
   anomaly-free).
"""

import pytest
from conftest import SYSTEM_NAMES, WORKLOAD_POOL, zero_gap_trace
from hypothesis import given, settings, strategies as st

from repro.serving import (
    BatchScheduler,
    InferenceRequest,
    OpenLoopArrivals,
    POLICY_LEAST_LOADED,
    RequestTrace,
    ShardedServiceCluster,
)

workload_lists = st.lists(
    st.sampled_from(WORKLOAD_POOL), min_size=1, max_size=6
)


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(SYSTEM_NAMES), workloads=workload_lists,
       gap_ms=st.integers(min_value=0, max_value=50))
def test_single_shard_batch_one_matches_serve_many(services, name, workloads, gap_ms):
    """1 shard + batch size 1 == sequential serve_many, report-identical.

    Holds for stateful systems too (DynPre's reconfiguration history evolves
    identically because the replica starts from the same initial state and
    sees the same workload sequence in the same order).
    """
    trace = RequestTrace(
        [
            InferenceRequest(request_id=i, arrival_seconds=i * gap_ms * 1e-3, workload=w)
            for i, w in enumerate(workloads)
        ]
    )
    cluster = ShardedServiceCluster(
        services[name],
        num_shards=1,
        scheduler=BatchScheduler(max_batch_size=1),
        policy=POLICY_LEAST_LOADED,
    )
    cluster_reports = cluster.serve_trace(trace).service_reports()
    sequential_reports = services[name].replicate().serve_many(workloads)
    assert len(cluster_reports) == len(sequential_reports)
    for got, expected in zip(cluster_reports, sequential_reports):
        assert got == expected


@settings(max_examples=15, deadline=None)
@given(
    num_requests=st.integers(min_value=4, max_value=24),
    rate_rps=st.sampled_from([50.0, 200.0, 1000.0]),
    seed=st.integers(min_value=0, max_value=2**16),
    max_batch_size=st.integers(min_value=1, max_value=4),
)
def test_throughput_monotone_in_shard_count(services, num_requests, rate_rps, seed, max_batch_size):
    """Adding shards never lowers throughput on a fixed trace.

    Uses the CPU system (stateless: each batch's service time is independent
    of which shard runs it or what ran before), least-loaded dispatch, and
    the same scheduler for every shard count — batching is shard-independent
    by construction, so only the dispatch layer varies.
    """
    trace = OpenLoopArrivals(WORKLOAD_POOL, rate_rps=rate_rps, seed=seed).trace(num_requests)
    scheduler = BatchScheduler(max_batch_size=max_batch_size, max_wait_seconds=0.002)
    previous = 0.0
    for num_shards in (1, 2, 3, 4, 6, 8):
        cluster = ShardedServiceCluster(
            services["CPU"],
            num_shards=num_shards,
            scheduler=scheduler,
            policy=POLICY_LEAST_LOADED,
        )
        throughput = cluster.serve_trace(trace).throughput_rps
        assert throughput >= previous * (1.0 - 1e-9)
        previous = throughput


@settings(max_examples=10, deadline=None)
@given(workloads=workload_lists)
def test_batched_pass_preserves_request_count(services, workloads):
    """Every request appears in exactly one batch and one served record."""
    trace = RequestTrace(
        [
            InferenceRequest(request_id=i, arrival_seconds=0.0, workload=w)
            for i, w in enumerate(workloads)
        ]
    )
    cluster = ShardedServiceCluster(
        services["StatPre"],
        num_shards=2,
        scheduler=BatchScheduler(max_batch_size=3, max_wait_seconds=0.01),
    )
    report = cluster.serve_trace(trace)
    assert report.num_requests == len(workloads)
    served_ids = sorted(s.request.request_id for s in report.served)
    assert served_ids == list(range(len(workloads)))
    assert sum(report.shard_requests) == len(workloads)


def test_identity_holds_for_every_system_on_fixed_sequence(services):
    """Deterministic cross-check of the identity contract for all seven."""
    workloads = [WORKLOAD_POOL[0], WORKLOAD_POOL[1], WORKLOAD_POOL[0], WORKLOAD_POOL[2]]
    for name in SYSTEM_NAMES:
        cluster = ShardedServiceCluster(
            services[name], num_shards=1, scheduler=BatchScheduler(max_batch_size=1)
        )
        got = cluster.serve_trace(zero_gap_trace(workloads)).service_reports()
        expected = services[name].replicate().serve_many(workloads)
        assert got == expected, f"identity violated for {name}"


def test_monotonicity_gate_two_x_at_four_shards(services):
    """The benchmark's acceptance gate in miniature: 4 shards >= 2x 1 shard."""
    trace = OpenLoopArrivals(WORKLOAD_POOL, rate_rps=2000.0, seed=3).trace(64)
    scheduler = BatchScheduler(max_batch_size=4, max_wait_seconds=0.002)

    def throughput(num_shards):
        cluster = ShardedServiceCluster(
            services["DynPre"], num_shards=num_shards, scheduler=scheduler
        )
        return cluster.serve_trace(trace).throughput_rps

    assert throughput(4) >= 2.0 * throughput(1)


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(pytest.main([__file__, "-q"]))
