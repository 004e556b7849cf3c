"""Chunked (array-native) offline loop ↔ event loop equivalence.

``serve_trace`` on the fast engine runs the chunked loop for eligible
offline replays (least-loaded, no fault schedule, no fair-mode batching)
and the event loop — ``serve_online`` over ``TraceArrivals`` — for every
other replay.
These suites pin that the selection is invisible: byte-identical
``ClusterReport.as_dict()`` output *and* equal per-request records across
systems, topologies, shard counts, tenants and degraded-quality traffic —
and that ineligible runs (locality dispatch, faults, fair batching) take
the event loop instead of diverging or crashing.
"""

import json

from conftest import (
    SYSTEM_NAMES,
    TENANTS,
    WORKLOAD_POOL,
    chunked_calls,
    make_bursty_tenant_trace,
)
from hypothesis import given, settings, strategies as st

from repro.serving import (
    BatchScheduler,
    ClusterTopology,
    ENGINE_FAST,
    ENGINE_REFERENCE,
    OpenLoopArrivals,
    ShardedServiceCluster,
    ServingConfig,
    SLOPolicy,
    TenantQuota,
    TraceArrivals,
    merge_traces,
)
from repro.serving.engine import _ChunkedServedLog
from repro.serving.faults import FaultSchedule


def _render(report) -> str:
    return json.dumps(report.as_dict(), sort_keys=True)


def _cluster(services, name="DynPre", engine=ENGINE_FAST, **kwargs):
    kwargs.setdefault("num_shards", 3)
    kwargs.setdefault(
        "scheduler", BatchScheduler(max_batch_size=4, max_wait_seconds=0.004)
    )
    return ShardedServiceCluster(services[name], engine=engine, **kwargs)


def _chunked(cluster, trace, slo=None):
    """``serve_trace`` on an eligible fast cluster: the chunked loop."""
    with chunked_calls() as calls:
        report = cluster.serve_trace(trace, config=ServingConfig(slo=slo))
    assert len(calls) == 1
    assert isinstance(report.served, _ChunkedServedLog)
    return report


def _both(make_cluster, trace, slo=None):
    """(chunked report, event-loop report), each from a fresh cluster.

    The event loop runs on the reference backend, whose per-request records
    and re-derived summaries share no accounting code with the chunked
    loop's fold.  Stateful systems (DynPre) mutate shard preprocessing
    state across a serve, so the two runs must not share cluster instances.
    ``make_cluster`` takes the engine."""
    chunked = _chunked(make_cluster(ENGINE_FAST), trace, slo)
    with chunked_calls() as calls:
        event = make_cluster(ENGINE_REFERENCE).serve_online(
            TraceArrivals(trace), config=ServingConfig(slo=slo)
        )
    assert calls == []
    return chunked, event


class TestChunkedEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        name=st.sampled_from(SYSTEM_NAMES),
        num_requests=st.integers(min_value=1, max_value=60),
        rate_rps=st.sampled_from([50.0, 400.0, 2000.0]),
        seed=st.integers(min_value=0, max_value=2**16),
        max_batch_size=st.integers(min_value=1, max_value=5),
        max_wait_ms=st.sampled_from([0.0, 1.0, 5.0, 50.0]),
        num_shards=st.integers(min_value=1, max_value=5),
        num_domains=st.integers(min_value=0, max_value=3),
    )
    def test_property_sweep(
        self, services, name, num_requests, rate_rps, seed,
        max_batch_size, max_wait_ms, num_shards, num_domains,
    ):
        """The chunked loop's heap pick matches the event loop's scan, with
        or without a topology (0 domains: none)."""
        trace = OpenLoopArrivals(WORKLOAD_POOL, rate_rps=rate_rps, seed=seed).trace(
            num_requests
        )
        topology = None
        if num_domains:
            topology = ClusterTopology.uniform(num_shards, min(num_domains, num_shards))
        chunked, event = _both(
            lambda engine: _cluster(
                services, name, engine, num_shards=num_shards, topology=topology,
                scheduler=BatchScheduler(
                    max_batch_size=max_batch_size,
                    max_wait_seconds=max_wait_ms * 1e-3,
                ),
            ),
            trace,
        )
        assert _render(chunked) == _render(event)

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        num_shards=st.integers(min_value=1, max_value=4),
    )
    def test_multi_tenant_degraded_slo_sweep(self, services, seed, num_shards):
        """Tenants × degraded-quality traffic × per-tenant SLO overrides."""
        full = make_bursty_tenant_trace(WORKLOAD_POOL, num_per_tenant=15, seed=seed)
        degraded_pool = [w.degrade() for w in WORKLOAD_POOL[:2]]
        degraded = OpenLoopArrivals(
            degraded_pool, rate_rps=300.0, seed=seed + 1, tenant=TENANTS[0]
        ).trace(20)
        trace = merge_traces([full, degraded])
        slo = SLOPolicy(
            default_slo_seconds=0.05,
            per_workload={"wl-m": 0.2},
            per_tenant={"ent": TenantQuota(slo_seconds=0.1)},
        )
        chunked, event = _both(
            lambda engine: _cluster(services, engine=engine, num_shards=num_shards),
            trace,
            slo=slo,
        )
        assert _render(chunked) == _render(event)
        assert chunked.tenant_stats == event.tenant_stats

    def test_auto_mode_selects_chunked_and_matches_reference(self, services):
        trace = OpenLoopArrivals(WORKLOAD_POOL, rate_rps=500.0, seed=11).trace(40)
        fast = _cluster(services)
        reference = _cluster(services, engine=ENGINE_REFERENCE)
        with chunked_calls() as calls:
            fast_report = fast.serve_trace(trace)
        assert len(calls) == 1
        assert _render(fast_report) == _render(reference.serve_trace(trace))

    def test_served_records_equal_not_just_summaries(self, services):
        trace = OpenLoopArrivals(WORKLOAD_POOL, rate_rps=500.0, seed=3).trace(30)
        chunked, event = _both(
            lambda engine: _cluster(services, "StatPre", engine), trace
        )
        assert len(chunked.served) == len(event.served)
        assert chunked.served == event.served
        for a, b in zip(chunked.served, event.served):
            assert a.request is b.request
            assert a.batching_delay == b.batching_delay
            assert a.dispatch_delay == b.dispatch_delay
        assert chunked.service_reports() == event.service_reports()


class TestIneligibleReplays:
    def test_locality_runs_the_event_loop(self, services):
        trace = OpenLoopArrivals(WORKLOAD_POOL, rate_rps=500.0, seed=7).trace(20)
        with chunked_calls() as calls:
            report = _cluster(services, policy="locality").serve_trace(trace)
        assert calls == []
        assert _render(report) == _render(
            _cluster(services, policy="locality", engine=ENGINE_REFERENCE).serve_trace(
                trace
            )
        )

    def test_fault_schedule_runs_the_event_loop(self, services):
        trace = OpenLoopArrivals(WORKLOAD_POOL, rate_rps=500.0, seed=5).trace(20)
        config = ServingConfig(faults=FaultSchedule(events=()))
        with chunked_calls() as calls:
            report = _cluster(services).serve_trace(trace, config=config)
        assert calls == []
        online = _cluster(services).serve_online(TraceArrivals(trace), config=config)
        assert _render(report) == _render(online)

    def test_fair_mode_runs_the_event_loop(self, services):
        trace = make_bursty_tenant_trace(WORKLOAD_POOL, num_per_tenant=10, seed=2)

        def fair_cluster():
            return _cluster(
                services,
                scheduler=BatchScheduler(
                    max_batch_size=4,
                    max_wait_seconds=0.004,
                    tenant_weights={"ent": 2.0, "free": 1.0},
                ),
            )

        with chunked_calls() as calls:
            report = fair_cluster().serve_trace(trace)
        assert calls == []
        assert _render(report) == _render(
            fair_cluster().serve_online(TraceArrivals(trace))
        )


class TestLazyServedLog:
    def test_summaries_never_materialize_records(self, services):
        trace = OpenLoopArrivals(WORKLOAD_POOL, rate_rps=500.0, seed=7).trace(50)
        report = _chunked(_cluster(services), trace)
        log = report.served
        assert isinstance(log, _ChunkedServedLog)
        report.as_dict()
        assert report.num_requests == 50
        assert len(log) == 50
        assert bool(log)
        # as_dict / len / bool read aggregates and batch columns only.
        assert log._records is None

    def test_compact_keeps_summary_without_materializing(self, services):
        trace = OpenLoopArrivals(WORKLOAD_POOL, rate_rps=500.0, seed=7).trace(50)
        report = _chunked(_cluster(services), trace)
        before = _render(report)
        log = report.served
        report.compact()
        assert log._records is None
        assert report.served == []
        assert _render(report) == before

    def test_materialized_records_are_indexable(self, services):
        trace = OpenLoopArrivals(WORKLOAD_POOL, rate_rps=500.0, seed=7).trace(25)
        chunked, event = _both(lambda engine: _cluster(services, engine=engine), trace)
        assert chunked.served[0] == event.served[0]
        assert list(chunked.served) == event.served
