"""Tests for the serving layer: requests, batching and the sharded cluster.

Workload/trace/cluster setup shared with the property suites lives in
``conftest.py`` (``make_profile``, ``zero_gap_trace``, the session-scoped
``services`` fixture).
"""

import copy
import dataclasses
import json
import math
import pickle
import re

import numpy as np
import pytest
from conftest import make_profile as profile, zero_gap_trace

from repro.analysis.metrics import LatencyStats, percentile
from repro.serving import (
    BatchScheduler,
    ClosedLoopClients,
    InferenceRequest,
    OpenLoopArrivals,
    POLICY_LOCALITY,
    RequestTrace,
    ShardedServiceCluster,
)
from repro.system.service import build_reference_systems
from repro.system.workload import WorkloadProfile


# ---------------------------------------------------------------- metrics
class TestLatencyStats:
    def test_percentile_interpolates(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 50) == 2.5

    def test_percentile_empty_and_single(self):
        assert percentile([], 50) == 0.0
        assert percentile([7.0], 99) == 7.0

    def test_percentile_rejects_bad_q(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_from_samples(self):
        stats = LatencyStats.from_samples([3.0, 1.0, 2.0])
        assert stats.count == 3
        assert stats.mean == pytest.approx(2.0)
        assert stats.p50 == pytest.approx(2.0)
        assert stats.max == 3.0
        assert set(stats.as_dict()) == {"count", "mean", "p50", "p95", "p99", "max"}

    def test_empty_samples(self):
        assert LatencyStats.from_samples([]).count == 0


# ---------------------------------------------------------------- requests
class TestArrivals:
    def test_open_loop_deterministic_and_sorted(self):
        mix = [profile("a"), profile("b")]
        gen = OpenLoopArrivals(mix, rate_rps=100.0, seed=3)
        t1, t2 = gen.trace(50), gen.trace(50)
        assert [r.arrival_seconds for r in t1] == [r.arrival_seconds for r in t2]
        arrivals = [r.arrival_seconds for r in t1]
        assert arrivals == sorted(arrivals)
        assert {r.workload.name for r in t1} <= {"a", "b"}

    def test_open_loop_uniform_rate(self):
        trace = OpenLoopArrivals([profile()], rate_rps=200.0, process="uniform").trace(41)
        assert trace.offered_rate_rps == pytest.approx(200.0)

    def test_open_loop_rejects_bad_params(self):
        with pytest.raises(ValueError):
            OpenLoopArrivals([profile()], rate_rps=0.0)
        with pytest.raises(ValueError):
            OpenLoopArrivals([profile()], rate_rps=1.0, process="bursty")
        with pytest.raises(ValueError):
            OpenLoopArrivals([profile()], rate_rps=1.0).trace(0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "build, message",
    [
        (lambda v: BatchScheduler(max_wait_seconds=v), "max_wait_seconds must be a finite"),
        (lambda v: OpenLoopArrivals([profile()], rate_rps=v), "rate_rps must be a finite"),
    ],
    ids=["max_wait_seconds", "rate_rps"],
)
def test_non_finite_inputs_rejected_at_construction(build, message, value):
    # If accepted, a NaN wait would crash serve_trace deep in the engine,
    # an infinite one would render p99=nan and a NaN rate would yield NaN
    # arrivals.
    with pytest.raises(ValueError, match=message):
        build(value)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_arrivals_rejected_at_construction(value):
    """A NaN arrival reached both engines, which served it with different
    makespans and a NaN p99; both trace constructors now refuse it."""
    w = profile()
    message = re.escape(f"arrival_seconds must be finite, got {value!r} at request 1")
    with pytest.raises(ValueError, match=message):
        RequestTrace(
            [InferenceRequest(0, 0.0, w), InferenceRequest(1, value, w),
             InferenceRequest(2, 0.5, w)]
        )
    with pytest.raises(ValueError, match=message):
        RequestTrace.from_arrays(
            np.array([0.0, value, 0.5]), [w], np.zeros(3, dtype=np.int64)
        )


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("think_seconds", math.nan, "think_seconds must be a finite number >= 0, got nan"),
        ("think_seconds", math.inf, "think_seconds must be a finite number >= 0, got inf"),
        (
            "retry_backoff_seconds", math.nan,
            "retry_backoff_seconds must be a finite number >= 0, got nan",
        ),
        ("num_clients", 2.5, "num_clients must be an integer >= 1, got 2.5"),
        ("max_requests", 5.5, "max_requests must be an integer >= 1, got 5.5"),
    ],
)
def test_closed_loop_clients_reject_bad_inputs(field, value, message):
    """``think_seconds=nan`` served 2 of 6 requests and ``max_requests=5.5``
    served 6: each field is checked at construction."""
    kwargs = {"num_clients": 2, "max_requests": 6, field: value}
    with pytest.raises(ValueError, match=re.escape(message)):
        ClosedLoopClients([profile()], **kwargs)


@pytest.mark.parametrize("value", [2.5, True, 0])
def test_max_batch_size_must_be_an_integer(value):
    """A fractional cap crashed the fast chunked replay's index arithmetic."""
    with pytest.raises(ValueError, match=f"max_batch_size must be an integer >= 1, got {value}"):
        BatchScheduler(max_batch_size=value)


def test_bulk_built_requests_behave_like_constructed_ones():
    """A generated trace builds its requests without ``__init__``; they
    compare, hash, print, copy and pickle like constructed ones and stay
    frozen."""
    trace = OpenLoopArrivals([profile("a"), profile("b")], rate_rps=100.0, seed=3).trace(20)
    for request in trace:
        built = InferenceRequest(
            request.request_id, request.arrival_seconds, request.workload, request.tenant
        )
        assert request == built
        assert hash(request) == hash(built)
        assert repr(request) == repr(built)
        assert pickle.loads(pickle.dumps(request)) == built
        assert copy.copy(request) == built
        assert dataclasses.replace(request, tenant="t") == dataclasses.replace(built, tenant="t")
    with pytest.raises(dataclasses.FrozenInstanceError):
        trace[0].arrival_seconds = 1.0


# --------------------------------------------------------------- scheduler
class TestBatchScheduler:
    def test_batch_size_one_is_identity(self):
        trace = OpenLoopArrivals([profile()], rate_rps=50.0).trace(10)
        batches = BatchScheduler(max_batch_size=1).schedule(trace)
        assert len(batches) == 10
        for batch, request in zip(batches, trace):
            assert batch.requests == [request]
            assert batch.ready_seconds == request.arrival_seconds
            assert batch.workload == request.workload

    def test_coalesces_up_to_max_batch_size(self):
        w = profile(batch_size=10)
        trace = zero_gap_trace([w] * 10)
        batches = BatchScheduler(max_batch_size=4, max_wait_seconds=1.0).schedule(trace)
        assert [len(b) for b in batches] == [4, 4, 2]
        assert batches[0].workload.batch_size == 40

    def test_incompatible_keys_never_mix(self):
        trace = zero_gap_trace([profile("a"), profile("b"), profile("a"), profile("b")])
        batches = BatchScheduler(max_batch_size=8, max_wait_seconds=1.0).schedule(trace)
        assert len(batches) == 2
        for batch in batches:
            assert len({r.workload.batch_key for r in batch.requests}) == 1

    def test_timeout_closes_batch(self):
        w = profile()
        trace = RequestTrace(
            [
                InferenceRequest(0, 0.0, w),
                InferenceRequest(1, 0.001, w),
                InferenceRequest(2, 10.0, w),
            ]
        )
        batches = BatchScheduler(max_batch_size=8, max_wait_seconds=0.005).schedule(trace)
        assert [len(b) for b in batches] == [2, 1]
        # The first batch closes at its timeout deadline, not at an arrival.
        assert batches[0].ready_seconds == pytest.approx(0.005)
        assert batches[0].batching_delay(trace[0]) == pytest.approx(0.005)

    def test_ready_times_monotone(self):
        mix = [profile("a"), profile("b"), profile("c")]
        trace = OpenLoopArrivals(mix, rate_rps=300.0, seed=7).trace(60)
        batches = BatchScheduler(max_batch_size=3, max_wait_seconds=0.01).schedule(trace)
        ready = [b.ready_seconds for b in batches]
        assert ready == sorted(ready)
        assert sum(len(b) for b in batches) == 60

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            BatchScheduler(max_batch_size=0)
        with pytest.raises(ValueError):
            BatchScheduler(max_wait_seconds=-1.0)


# ----------------------------------------------------------------- cluster
class TestShardedServiceCluster:
    def test_replicas_are_independent(self, services):
        cluster = ShardedServiceCluster(services["DynPre"], num_shards=2)
        assert cluster.shards[0] is not cluster.shards[1]
        assert cluster.shards[0].preprocessing is not cluster.shards[1].preprocessing
        # Shared immutable library, private mutable reconfiguration state.
        s0, s1 = (shard.preprocessing for shard in cluster.shards)
        assert s0.library is s1.library
        assert s0.reconfig is not s1.reconfig

    def test_replicate_preserves_renamed_system_name(self):
        from repro.system.variants import DynPreSystem

        system = DynPreSystem()
        system.name = "DynPre-rack0"
        assert system.replicate().name == "DynPre-rack0"
        assert all(clone.name == "DynPre-rack0" for clone in system.replicas(2))

    def test_all_seven_systems_replicate(self):
        w = WorkloadProfile.from_dataset("PH")
        for name, system in build_reference_systems().items():
            clone = system.replicate()
            assert clone is not system
            assert clone.name == name
            assert type(clone) is type(system)
            assert clone.evaluate(w).total > 0

    def test_locality_pins_workload_to_home_shard(self, services):
        trace = OpenLoopArrivals(
            [profile("a"), profile("b"), profile("c")], rate_rps=100.0, seed=5
        ).trace(30)
        cluster = ShardedServiceCluster(
            services["CPU"],
            num_shards=4,
            scheduler=BatchScheduler(max_batch_size=1),
            policy=POLICY_LOCALITY,
        )
        report = cluster.serve_trace(trace)
        shard_of = {}
        for served in report.served:
            key = served.request.workload.batch_key
            shard_of.setdefault(key, served.shard_id)
            assert served.shard_id == shard_of[key]

    def test_decomposition_sums_to_sojourn(self, services):
        trace = OpenLoopArrivals([profile("a"), profile("b")], rate_rps=400.0, seed=2).trace(24)
        cluster = ShardedServiceCluster(
            services["GPU"],
            num_shards=2,
            scheduler=BatchScheduler(max_batch_size=3, max_wait_seconds=0.004),
        )
        report = cluster.serve_trace(trace)
        assert report.num_requests == 24
        for served in report.served:
            assert served.batching_delay >= 0
            assert served.dispatch_delay >= 0
            assert served.sojourn_seconds == pytest.approx(
                served.batching_delay + served.dispatch_delay + served.service_seconds
            )
            assert served.finish_seconds == pytest.approx(
                served.request.arrival_seconds + served.sojourn_seconds
            )
        decomposition = report.queueing_decomposition
        assert decomposition["batching"] + decomposition["dispatch"] + decomposition[
            "service"
        ] == pytest.approx(report.latency.mean)

    def test_utilization_bounded(self, services):
        trace = OpenLoopArrivals([profile()], rate_rps=1000.0, seed=9).trace(40)
        cluster = ShardedServiceCluster(services["StatPre"], num_shards=3)
        report = cluster.serve_trace(trace)
        assert len(report.shard_utilization) == 3
        for utilization in report.shard_utilization:
            assert 0.0 <= utilization <= 1.0 + 1e-9

    def test_report_is_json_serializable(self, services):
        trace = OpenLoopArrivals([profile()], rate_rps=100.0).trace(8)
        report = ShardedServiceCluster(services["FPGA"], num_shards=2).serve_trace(trace)
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["system"] == "FPGA"
        assert payload["num_requests"] == 8
        assert payload["throughput_rps"] > 0

    def test_all_seven_clusters_share_one_trace(self, services):
        trace = OpenLoopArrivals(
            [WorkloadProfile.from_dataset("PH")], rate_rps=200.0, seed=11
        ).trace(10)
        scheduler = BatchScheduler(max_batch_size=2, max_wait_seconds=0.01)
        clusters = {
            name: ShardedServiceCluster(service, num_shards=2, scheduler=scheduler)
            for name, service in services.items()
        }
        assert set(clusters) == {"CPU", "GPU", "GSamp", "FPGA", "AutoPre", "StatPre", "DynPre"}
        for name, cluster in clusters.items():
            report = cluster.serve_trace(trace)
            assert report.system == name
            assert report.num_requests == 10
            assert report.throughput_rps > 0

    def test_rejects_bad_params(self, services):
        with pytest.raises(ValueError):
            ShardedServiceCluster(services["CPU"], num_shards=0)
        with pytest.raises(ValueError):
            ShardedServiceCluster(services["CPU"], policy="random")
        with pytest.raises(ValueError):
            ShardedServiceCluster(services["CPU"]).serve_trace(RequestTrace([]))


# ------------------------------------------------------------- serve_many
class TestServeManyContract:
    def test_empty_list_raises(self, services):
        with pytest.raises(ValueError, match="non-empty"):
            services["CPU"].serve_many([])

    def test_service_replicate_is_fresh(self, services):
        replica = services["DynPre"].replicate()
        assert replica is not services["DynPre"]
        assert replica.preprocessing is not services["DynPre"].preprocessing
        assert replica.power.preprocessing_platform == "fpga"
