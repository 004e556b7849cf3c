"""Reference ↔ fast engine equivalence: the fast engine's headline contract.

``ShardedServiceCluster(engine="fast")`` must produce **byte-identical**
``ClusterReport.as_dict()`` output to ``engine="reference"`` — the golden
files pin specific runs, and the suites here sweep the space: every system,
every dispatch policy, randomized traces and scheduler parameters
(hypothesis), the online loop with and without the control plane, and the
batching timeout boundaries where a tie-break bug would first show up.
"""

import dataclasses
import json

import pytest
from conftest import (
    SYSTEM_NAMES,
    TENANTS,
    WORKLOAD_POOL,
    make_bursty_tenant_trace,
    make_profile,
)
from hypothesis import given, settings, strategies as st

from repro.serving import (
    AdmissionController,
    Autoscaler,
    BatchScheduler,
    ClosedLoopClients,
    ClusterTopology,
    DegradationPolicy,
    DISPATCH_POLICIES,
    ENGINE_FAST,
    ENGINE_REFERENCE,
    InferenceRequest,
    OpenLoopArrivals,
    RandomFaults,
    RequestTrace,
    ServingConfig,
    ShardedServiceCluster,
    SLOPolicy,
    TenantQuota,
    TraceArrivals,
)
from repro.serving.engine import ShardHeap, _ChunkedServedLog
from repro.system.service import build_services


def _render(report) -> str:
    return json.dumps(report.as_dict(), sort_keys=True)


def _cluster(services, name, engine, **kwargs):
    kwargs.setdefault("num_shards", 3)
    return ShardedServiceCluster(services[name], engine=engine, **kwargs)


def _pair(services, name, **kwargs):
    return (
        _cluster(services, name, ENGINE_REFERENCE, **kwargs),
        _cluster(services, name, ENGINE_FAST, **kwargs),
    )


# ------------------------------------------------------------------- offline
class TestOfflineEquivalence:
    @pytest.mark.parametrize("name", SYSTEM_NAMES)
    @pytest.mark.parametrize("policy", DISPATCH_POLICIES)
    def test_all_systems_all_policies(self, services, name, policy):
        trace = OpenLoopArrivals(WORKLOAD_POOL, rate_rps=400.0, seed=5).trace(40)
        scheduler = BatchScheduler(max_batch_size=3, max_wait_seconds=0.004)
        reference, fast = _pair(
            services, name, policy=policy, scheduler=scheduler,
            locality_spill_seconds=0.05,
        )
        assert _render(reference.serve_trace(trace)) == _render(fast.serve_trace(trace))

    @settings(max_examples=20, deadline=None)
    @given(
        name=st.sampled_from(SYSTEM_NAMES),
        policy=st.sampled_from(DISPATCH_POLICIES),
        num_requests=st.integers(min_value=1, max_value=40),
        rate_rps=st.sampled_from([50.0, 400.0, 2000.0]),
        seed=st.integers(min_value=0, max_value=2**16),
        max_batch_size=st.integers(min_value=1, max_value=5),
        max_wait_ms=st.sampled_from([0.0, 1.0, 5.0, 50.0]),
        num_shards=st.integers(min_value=1, max_value=5),
    )
    def test_property_sweep(
        self, services, name, policy, num_requests, rate_rps, seed,
        max_batch_size, max_wait_ms, num_shards,
    ):
        trace = OpenLoopArrivals(WORKLOAD_POOL, rate_rps=rate_rps, seed=seed).trace(
            num_requests
        )
        scheduler = BatchScheduler(
            max_batch_size=max_batch_size, max_wait_seconds=max_wait_ms * 1e-3
        )
        reference, fast = _pair(
            services, name, num_shards=num_shards, policy=policy, scheduler=scheduler
        )
        assert _render(reference.serve_trace(trace)) == _render(fast.serve_trace(trace))

    def test_slo_scored_offline_run(self, services):
        trace = OpenLoopArrivals(WORKLOAD_POOL, rate_rps=1000.0, seed=9).trace(30)
        slo = SLOPolicy(default_slo_seconds=0.1, per_workload={"wl-m": 0.2})
        reference, fast = _pair(services, "DynPre")
        config = ServingConfig(slo=slo)
        assert _render(reference.serve_trace(trace, config=config)) == _render(
            fast.serve_trace(trace, config=config)
        )

    def test_served_records_match_not_just_summaries(self, services):
        trace = OpenLoopArrivals(WORKLOAD_POOL, rate_rps=500.0, seed=3).trace(24)
        scheduler = BatchScheduler(max_batch_size=4, max_wait_seconds=0.002)
        reference, fast = _pair(services, "StatPre", scheduler=scheduler)
        ref_report = reference.serve_trace(trace)
        fast_report = fast.serve_trace(trace)
        assert len(ref_report.served) == len(fast_report.served)
        for a, b in zip(ref_report.served, fast_report.served):
            assert a.request == b.request
            assert a.shard_id == b.shard_id
            assert a.batch_size == b.batch_size
            assert a.batching_delay == b.batching_delay
            assert a.dispatch_delay == b.dispatch_delay
            assert a.service_seconds == b.service_seconds
            assert a.report == b.report
        assert ref_report.service_reports() == fast_report.service_reports()


# -------------------------------------------------------------------- online
class TestOnlineEquivalence:
    def test_uncontrolled_replay(self, services):
        trace = OpenLoopArrivals(WORKLOAD_POOL, rate_rps=600.0, seed=11).trace(30)
        scheduler = BatchScheduler(max_batch_size=3, max_wait_seconds=0.003)
        reference, fast = _pair(services, "DynPre", scheduler=scheduler)
        assert _render(reference.serve_online(TraceArrivals(trace))) == _render(
            fast.serve_online(TraceArrivals(trace))
        )

    @settings(max_examples=10, deadline=None)
    @given(
        name=st.sampled_from(SYSTEM_NAMES),
        seed=st.integers(min_value=0, max_value=2**16),
        num_clients=st.integers(min_value=1, max_value=12),
        slo_ms=st.sampled_from([50.0, 200.0, 1000.0]),
    )
    def test_controlled_closed_loop(self, services, name, seed, num_clients, slo_ms):
        scheduler = BatchScheduler(max_batch_size=3, max_wait_seconds=0.004)
        slo = SLOPolicy(default_slo_seconds=slo_ms * 1e-3)

        def run(engine):
            cluster = _cluster(services, name, engine, scheduler=scheduler)
            scaler = Autoscaler(
                min_shards=1, max_shards=3, scale_up_depth=2.0,
                scale_down_depth=0.5, hysteresis_observations=2,
            )
            clients = ClosedLoopClients(
                WORKLOAD_POOL, num_clients=num_clients, think_seconds=0.005,
                seed=seed, max_requests=30, retry_backoff_seconds=0.02,
            )
            return cluster.serve_online(
                clients, config=ServingConfig(slo=slo, admit=True, autoscaler=scaler)
            )

        assert _render(run(ENGINE_REFERENCE)) == _render(run(ENGINE_FAST))


# -------------------------------------------- batching timeout boundaries
class TestTimeoutBoundaries:
    """Size-or-timeout edge cases must close identically in both engines."""

    WAIT = 0.005

    def _reports(self, services, trace, max_batch_size):
        scheduler = BatchScheduler(
            max_batch_size=max_batch_size, max_wait_seconds=self.WAIT
        )
        reference, fast = _pair(
            services, "CPU", num_shards=2, scheduler=scheduler
        )
        offline = (reference.serve_trace(trace), fast.serve_trace(trace))
        online = (
            reference.serve_online(TraceArrivals(trace)),
            fast.serve_online(TraceArrivals(trace)),
        )
        assert _render(offline[0]) == _render(offline[1])
        assert _render(online[0]) == _render(online[1])
        assert _render(offline[0]) == _render(online[0])
        return offline[1]

    def test_arrival_exactly_at_deadline_starts_new_batch(self, services):
        # Third request lands exactly at the first batch's deadline: the
        # timer fires first (deadline <= now), so the batch closes with two
        # members and the boundary request opens a fresh batch.
        w = make_profile()
        trace = RequestTrace(
            [
                InferenceRequest(0, 0.0, w),
                InferenceRequest(1, 0.002, w),
                InferenceRequest(2, self.WAIT, w),
            ]
        )
        report = self._reports(services, trace, max_batch_size=8)
        assert report.num_batches == 2
        sizes = sorted(s.batch_size for s in report.served)
        assert sizes == [1, 2, 2]
        first = next(s for s in report.served if s.request.request_id == 0)
        assert first.batching_delay == pytest.approx(self.WAIT)

    def test_batch_fills_on_the_deadline_tick(self, services):
        # The filling (max_batch_size-th) request arrives exactly when the
        # batch's timer expires: the timer still fires first, so the batch
        # closes *without* the filler in both engines — no double-close, no
        # engine divergence on the tie.
        w = make_profile()
        trace = RequestTrace(
            [
                InferenceRequest(0, 0.0, w),
                InferenceRequest(1, self.WAIT, w),
            ]
        )
        report = self._reports(services, trace, max_batch_size=2)
        assert report.num_batches == 2
        assert all(s.batch_size == 1 for s in report.served)

    def test_fill_and_foreign_deadline_on_same_tick(self, services):
        # Key "a" fills by size at the same instant key "b"'s timer expires:
        # the offline scheduler closes the expired batch first (ready times
        # stay monotone), and the online loop's deadline-before-arrival
        # tie-break reproduces it; both engines must agree on the order.
        a, b = make_profile("a"), make_profile("b")
        trace = RequestTrace(
            [
                InferenceRequest(0, 0.0, b),
                InferenceRequest(1, 0.001, a),
                InferenceRequest(2, self.WAIT, a),
            ]
        )
        report = self._reports(services, trace, max_batch_size=2)
        assert report.num_batches == 2
        a_records = [s for s in report.served if s.request.workload.name == "a"]
        assert all(s.batch_size == 2 for s in a_records)

    def test_zero_wait_disables_cross_request_batching(self, services):
        # max_wait_seconds=0: every deadline coincides with its opener's
        # arrival, so even coincident arrivals close as singleton batches.
        w = make_profile()
        trace = RequestTrace(
            [InferenceRequest(i, 0.0, w) for i in range(4)]
        )
        scheduler = BatchScheduler(max_batch_size=8, max_wait_seconds=0.0)
        reference, fast = _pair(services, "CPU", num_shards=2, scheduler=scheduler)
        ref_report = reference.serve_trace(trace)
        fast_report = fast.serve_trace(trace)
        assert _render(ref_report) == _render(fast_report)
        assert fast_report.num_batches == 4


# --------------------------------------------------- multi-tenant + bursty
class TestTenantEquivalence:
    """Byte-identity must survive tenancy: bursty multi-tenant traffic,
    weighted-fair batching, quota-tiered admission and batching-aware
    estimates all ride the same reference/fast contract."""

    WEIGHTS = {"ent": 3.0, "free": 1.0, "pro": 2.0}

    def _slo(self) -> SLOPolicy:
        return SLOPolicy(
            default_slo_seconds=0.4,
            per_tenant={
                "free": TenantQuota(guaranteed_rps=10.0, weight=1.0, limit_rps=200.0),
                "pro": TenantQuota(guaranteed_rps=25.0, weight=2.0),
                "ent": TenantQuota(guaranteed_rps=40.0, weight=3.0, slo_seconds=0.3),
            },
            excess_rps=15.0,
        )

    @pytest.mark.parametrize("policy", DISPATCH_POLICIES)
    def test_bursty_fair_offline(self, services, policy):
        trace = make_bursty_tenant_trace(WORKLOAD_POOL, num_per_tenant=15, seed=3)
        scheduler = BatchScheduler(
            max_batch_size=3, max_wait_seconds=0.004, tenant_weights=self.WEIGHTS
        )
        reference, fast = _pair(
            services, "DynPre", policy=policy, scheduler=scheduler,
            locality_spill_seconds=0.05,
        )
        slo = self._slo()
        config = ServingConfig(slo=slo)
        assert _render(reference.serve_trace(trace, config=config)) == _render(
            fast.serve_trace(trace, config=config)
        )

    def test_bursty_fair_controlled_online(self, services):
        trace = make_bursty_tenant_trace(WORKLOAD_POOL, num_per_tenant=20, seed=9)
        scheduler = BatchScheduler(
            max_batch_size=3, max_wait_seconds=0.004, tenant_weights=self.WEIGHTS
        )

        def run(engine):
            cluster = _cluster(services, "DynPre", engine, scheduler=scheduler)
            scaler = Autoscaler(
                min_shards=1, max_shards=3, scale_up_depth=2.0,
                scale_down_depth=0.5, hysteresis_observations=2,
            )
            return cluster.serve_online(
                TraceArrivals(trace),
                config=ServingConfig(
                    slo=self._slo(), admit=True, autoscaler=scaler, batch_aware=True
                ),
            )

        reference, fast = run(ENGINE_REFERENCE), run(ENGINE_FAST)
        assert _render(reference) == _render(fast)
        # The tenant sections agree record-for-record, not just rendered.
        assert set(reference.tenant_stats) == set(TENANTS)
        for tenant, stats in reference.tenant_stats.items():
            other = fast.tenant_stats[tenant]
            assert stats.offered == other.offered
            assert stats.served == other.served
            assert stats.shed == other.shed
            assert stats.slo_met == other.slo_met
            assert stats.latency == other.latency

    @settings(max_examples=15, deadline=None)
    @given(
        name=st.sampled_from(SYSTEM_NAMES),
        seed=st.integers(min_value=0, max_value=2**16),
        num_per_tenant=st.integers(min_value=2, max_value=15),
        peak=st.sampled_from([100.0, 500.0, 2000.0]),
        max_batch_size=st.integers(min_value=1, max_value=5),
        max_wait_ms=st.sampled_from([0.0, 1.0, 5.0]),
        num_shards=st.integers(min_value=1, max_value=4),
        fair=st.booleans(),
        slo_ms=st.sampled_from([50.0, 300.0]),
    )
    def test_property_sweep_tenants(
        self, services, name, seed, num_per_tenant, peak, max_batch_size,
        max_wait_ms, num_shards, fair, slo_ms,
    ):
        trace = make_bursty_tenant_trace(
            WORKLOAD_POOL, num_per_tenant=num_per_tenant, peak_rate_rps=peak,
            seed=seed,
        )
        scheduler = BatchScheduler(
            max_batch_size=max_batch_size,
            max_wait_seconds=max_wait_ms * 1e-3,
            tenant_weights=self.WEIGHTS if fair else None,
        )
        slo = SLOPolicy(
            default_slo_seconds=slo_ms * 1e-3,
            per_tenant={"free": TenantQuota(guaranteed_rps=20.0)},
        )

        def run(engine):
            cluster = _cluster(
                services, name, engine, num_shards=num_shards, scheduler=scheduler
            )
            return cluster.serve_online(
                TraceArrivals(trace),
                config=ServingConfig(slo=slo, admit=True, batch_aware=True),
            )

        assert _render(run(ENGINE_REFERENCE)) == _render(run(ENGINE_FAST))


# ------------------------------------------------------ graceful degradation
class TestDegradationEquivalence:
    """The degraded-quality admission tier rides the same byte-identity
    contract: degraded requests re-price against their own open batches in
    both engines, and the tiered goodput/tenant sections must agree."""

    WEIGHTS = {"ent": 3.0, "free": 1.0, "pro": 2.0}

    @settings(max_examples=15, deadline=None)
    @given(
        name=st.sampled_from(SYSTEM_NAMES),
        policy=st.sampled_from(DISPATCH_POLICIES),
        seed=st.integers(min_value=0, max_value=2**16),
        num_requests=st.integers(min_value=5, max_value=40),
        rate_rps=st.sampled_from([200.0, 1000.0, 4000.0]),
        slo_ms=st.sampled_from([20.0, 100.0, 500.0]),
        k_factor=st.sampled_from([0.3, 0.5, 1.0]),
        layer_drop=st.integers(min_value=0, max_value=2),
        batch_aware=st.booleans(),
        num_shards=st.integers(min_value=1, max_value=4),
    )
    def test_property_sweep_degraded(
        self, services, name, policy, seed, num_requests, rate_rps, slo_ms,
        k_factor, layer_drop, batch_aware, num_shards,
    ):
        trace = OpenLoopArrivals(WORKLOAD_POOL, rate_rps=rate_rps, seed=seed).trace(
            num_requests
        )
        config = ServingConfig(
            slo=SLOPolicy(default_slo_seconds=slo_ms * 1e-3),
            admit=True,
            batch_aware=batch_aware,
            degradation=DegradationPolicy(k_factor=k_factor, layer_drop=layer_drop),
        )
        scheduler = BatchScheduler(max_batch_size=3, max_wait_seconds=0.004)

        def run(engine):
            cluster = _cluster(
                services, name, engine, num_shards=num_shards,
                policy=policy, scheduler=scheduler, locality_spill_seconds=0.05,
            )
            return cluster.serve_online(TraceArrivals(trace), config=config)

        reference, fast = run(ENGINE_REFERENCE), run(ENGINE_FAST)
        assert _render(reference) == _render(fast)
        goodput = fast.goodput
        assert (
            goodput.offered
            == goodput.served_full + goodput.served_degraded
            + goodput.shed + goodput.failed
        )

    def test_degraded_tenant_sections_agree(self, services):
        trace = make_bursty_tenant_trace(WORKLOAD_POOL, num_per_tenant=20, seed=7)
        config = ServingConfig(
            slo=SLOPolicy(
                default_slo_seconds=0.05,
                per_tenant={"free": TenantQuota(guaranteed_rps=20.0)},
            ),
            admit=True,
            degradation=DegradationPolicy(k_factor=0.5, layer_drop=1),
        )
        scheduler = BatchScheduler(
            max_batch_size=3, max_wait_seconds=0.004, tenant_weights=self.WEIGHTS
        )

        def run(engine):
            cluster = _cluster(services, "DynPre", engine, scheduler=scheduler)
            return cluster.serve_online(TraceArrivals(trace), config=config)

        reference, fast = run(ENGINE_REFERENCE), run(ENGINE_FAST)
        assert _render(reference) == _render(fast)
        assert reference.goodput.served_degraded > 0, (
            "fixture should exercise the degraded tier"
        )
        for tenant, stats in reference.tenant_stats.items():
            other = fast.tenant_stats[tenant]
            assert stats.served_degraded == other.served_degraded
            assert stats.slo_met_degraded == other.slo_met_degraded


# ------------------------------------------------- backend-identity matrix
#: The ``faulted`` axis: no faults (False), fault-aware dispatch (True) or
#: the fault-oblivious baseline ("oblivious").  The oblivious cells come
#: last, so every other cell keeps its index (trace seed and system).
_FAULT_MODES = ((False, True), ("oblivious",))

#: Online matrix: policy x fair batching x faults x autoscaler x topology.
_ONLINE_CELLS = [
    (policy, fair, faulted, scaler, topology)
    for modes in _FAULT_MODES
    for policy in DISPATCH_POLICIES
    for fair in (False, True)
    for faulted in modes
    for scaler in ("none", "drain", "no-drain")
    for topology in (False, True)
]

#: Offline matrix: policy x fair batching x faults x topology.
_OFFLINE_CELLS = [
    (policy, fair, faulted, topology)
    for modes in _FAULT_MODES
    for policy in DISPATCH_POLICIES
    for fair in (False, True)
    for faulted in modes
    for topology in (False, True)
]


class TestBackendIdentityMatrix:
    """Both backends render the same bytes across the feature cross-product.

    The loops exist once, so a difference here can only come from a
    backend piece (shard pick, admission backlog minimum, deadline order,
    serve, merged workload, aggregates) disagreeing with its reference
    counterpart.  Most cells run the stateless GPU system; every third
    runs DynPre, whose reconfiguration state exercises the serve cache.
    """

    WEIGHTS = {"ent": 3.0, "free": 1.0, "pro": 2.0}
    NUM_SHARDS = 4

    def _cluster(self, services, system, engine, policy, fair, topology):
        return ShardedServiceCluster(
            services[system],
            num_shards=self.NUM_SHARDS,
            engine=engine,
            policy=policy,
            scheduler=BatchScheduler(
                max_batch_size=3,
                max_wait_seconds=0.004,
                tenant_weights=self.WEIGHTS if fair else None,
            ),
            locality_spill_seconds=0.02,
            rebalance_seconds=0.05 if policy == "locality" else None,
            topology=ClusterTopology.uniform(self.NUM_SHARDS, 2) if topology else None,
        )

    def _faults(self, seed, faulted):
        if not faulted:
            return None
        schedule = RandomFaults(
            num_shards=self.NUM_SHARDS,
            horizon_seconds=0.4,
            mean_uptime_seconds=0.08,
            mean_downtime_seconds=0.03,
            retry_budget=2,
            retry_backoff_seconds=0.003,
            seed=seed,
        ).schedule()
        if faulted == "oblivious":
            schedule = dataclasses.replace(schedule, fault_aware=False)
        return schedule

    def _slo(self):
        return SLOPolicy(
            default_slo_seconds=0.3,
            per_tenant={"ent": TenantQuota(guaranteed_rps=20.0, weight=3.0)},
        )

    @staticmethod
    def _conserved(report, offered):
        goodput = report.goodput
        served_full = goodput.served - goodput.served_degraded
        assert goodput.offered == offered
        assert offered == (
            served_full + goodput.served_degraded + goodput.shed + goodput.failed
        )

    @pytest.mark.parametrize("policy,fair,faulted,scaler,topology", _ONLINE_CELLS)
    def test_online(self, services, policy, fair, faulted, scaler, topology):
        index = _ONLINE_CELLS.index((policy, fair, faulted, scaler, topology))
        system = "DynPre" if index % 3 == 0 else "GPU"
        trace = make_bursty_tenant_trace(
            WORKLOAD_POOL, num_per_tenant=15, peak_rate_rps=900.0, seed=index
        )
        renders = []
        for engine in (ENGINE_REFERENCE, ENGINE_FAST):
            autoscaler = None
            if scaler != "none":
                autoscaler = Autoscaler(
                    min_shards=1, max_shards=self.NUM_SHARDS, scale_up_depth=3.0,
                    scale_down_depth=0.5, hysteresis_observations=2,
                    drain=scaler == "drain",
                )
            config = ServingConfig(
                slo=self._slo(),
                admit=True,
                degradation=DegradationPolicy(),
                autoscaler=autoscaler,
                faults=self._faults(index, faulted),
            )
            cluster = self._cluster(services, system, engine, policy, fair, topology)
            report = cluster.serve_online(TraceArrivals(trace), config=config)
            self._conserved(report, len(trace))
            assert (report.faults is not None) == bool(faulted)
            renders.append(_render(report))
        assert renders[0] == renders[1]

    @pytest.mark.parametrize("policy,fair,faulted,topology", _OFFLINE_CELLS)
    def test_offline(self, services, policy, fair, faulted, topology):
        index = _OFFLINE_CELLS.index((policy, fair, faulted, topology))
        system = "DynPre" if index % 3 == 0 else "GPU"
        trace = make_bursty_tenant_trace(
            WORKLOAD_POOL, num_per_tenant=15, peak_rate_rps=900.0, seed=index
        )
        config = ServingConfig(slo=self._slo(), faults=self._faults(index, faulted))
        renders = []
        for engine in (ENGINE_REFERENCE, ENGINE_FAST):
            cluster = self._cluster(services, system, engine, policy, fair, topology)
            report = cluster.serve_trace(trace, config=config)
            # Only fault-free, non-fair fast replays take the chunked loop.
            chunked = engine == ENGINE_FAST and not fair and not faulted
            assert isinstance(report.served, _ChunkedServedLog) == chunked
            self._conserved(report, len(trace))
            renders.append(_render(report))
        assert renders[0] == renders[1]


# ------------------------------------------------------- scheduler fast path
class TestScheduleFastEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        num_requests=st.integers(min_value=1, max_value=60),
        rate_rps=st.sampled_from([100.0, 1000.0, 5000.0]),
        seed=st.integers(min_value=0, max_value=2**16),
        max_batch_size=st.integers(min_value=1, max_value=6),
        max_wait_ms=st.sampled_from([0.0, 0.5, 2.0, 20.0]),
    )
    def test_matches_reference_schedule(
        self, num_requests, rate_rps, seed, max_batch_size, max_wait_ms
    ):
        trace = OpenLoopArrivals(WORKLOAD_POOL, rate_rps=rate_rps, seed=seed).trace(
            num_requests
        )
        scheduler = BatchScheduler(
            max_batch_size=max_batch_size, max_wait_seconds=max_wait_ms * 1e-3
        )
        reference = scheduler.schedule(trace)
        fast = scheduler.schedule_fast(trace)
        assert len(reference) == len(fast)
        for ref_batch, fast_batch in zip(reference, fast):
            assert ref_batch.ready_seconds == fast_batch.ready_seconds
            assert ref_batch.requests == fast_batch.requests
            assert ref_batch.workload == fast_batch.workload


# --------------------------------------------------------------- fast extras
class TestFastEngineExtras:
    def test_compact_preserves_summary(self, services):
        trace = OpenLoopArrivals(WORKLOAD_POOL, rate_rps=500.0, seed=2).trace(30)
        cluster = _cluster(
            services, "DynPre", ENGINE_FAST,
            scheduler=BatchScheduler(max_batch_size=3, max_wait_seconds=0.002),
        )
        report = cluster.serve_trace(trace)
        rendered = _render(report)
        report.compact()
        assert _render(report) == rendered
        assert report.served == [] and report.num_requests == 30

    def test_compact_requires_aggregates(self, services):
        trace = OpenLoopArrivals(WORKLOAD_POOL, rate_rps=500.0, seed=2).trace(5)
        report = _cluster(services, "CPU", ENGINE_REFERENCE).serve_trace(trace)
        with pytest.raises(ValueError, match="aggregates"):
            report.compact()

    def test_rejects_unknown_engine(self, services):
        with pytest.raises(ValueError, match="engine"):
            ShardedServiceCluster(services["CPU"], engine="warp")

    @pytest.mark.parametrize("path", ["chunked", "event"])
    def test_serve_cache_reused_across_runs(self, services, path):
        """A second trace on the same cluster starts from the shard states
        the first left and replays the first's transitions from the cache."""
        trace_a = OpenLoopArrivals(WORKLOAD_POOL, rate_rps=500.0, seed=4).trace(12)
        trace_b = OpenLoopArrivals(WORKLOAD_POOL, rate_rps=500.0, seed=9).trace(12)
        scheduler = BatchScheduler(max_batch_size=2, max_wait_seconds=0.002)
        reference, fast = _pair(services, "DynPre", scheduler=scheduler)

        def serve(cluster, trace):
            if path == "event" and cluster is fast:
                return cluster.serve_online(TraceArrivals(trace))
            return cluster.serve_trace(trace)

        assert _render(serve(fast, trace_a)) == _render(serve(reference, trace_a))
        populated = len(fast._serve_cache)
        assert populated > 0
        report_b = serve(fast, trace_b)
        assert _render(report_b) == _render(serve(reference, trace_b))
        assert len(fast._serve_cache) - populated < report_b.num_batches

    @pytest.mark.parametrize("policy", ["least-loaded", "locality"])
    def test_replayed_hits_keep_shard_state_and_reconfig_log(self, services, policy):
        """Hits move shards through ``apply_state``: every shard must end in
        the state, with the reconfiguration log, that direct serves leave."""
        trace = OpenLoopArrivals(WORKLOAD_POOL, rate_rps=400.0, seed=6).trace(60)
        scheduler = BatchScheduler(max_batch_size=3, max_wait_seconds=0.004)
        reference, fast = _pair(
            services, "DynPre", policy=policy, scheduler=scheduler,
            locality_spill_seconds=0.05,
        )
        report = fast.serve_trace(trace)
        assert _render(report) == _render(reference.serve_trace(trace))
        # Some batches replayed a cached transition.
        assert len(fast._serve_cache) < report.num_batches
        for ref_shard, fast_shard in zip(reference.shards, fast.shards):
            assert fast_shard.state_key() == ref_shard.state_key()
            assert fast_shard.preprocessing.reconfig.events == (
                ref_shard.preprocessing.reconfig.events
            )
        assert any(shard.preprocessing.reconfig.events for shard in fast.shards)

    def test_pure_memos_are_shared_per_cluster_not_with_the_template(self):
        template = build_services()["DynPre"]
        cluster = ShardedServiceCluster(
            template, num_shards=2, policy="locality",
            scheduler=BatchScheduler(max_batch_size=3, max_wait_seconds=0.004),
        )
        first, second = (shard.preprocessing for shard in cluster.shards)
        assert first._latency_cache is second._latency_cache
        assert first._configured_cache is second._configured_cache
        assert first._candidate_cache is second._candidate_cache
        assert first.cost_model is second.cost_model
        assert first.reconfig is not second.reconfig
        trace = OpenLoopArrivals(WORKLOAD_POOL, rate_rps=400.0, seed=5).trace(30)
        cluster.serve_trace(trace)
        cluster.serve_online(TraceArrivals(trace))
        assert first._latency_cache and first._configured_cache
        system = template.preprocessing
        assert system._latency_cache == {}
        assert system._configured_cache == {}
        assert system._candidate_cache == {}
        assert system.cost_model._estimate_cache == {}
        assert template._inference_cache == {}
        assert template._cost_cache == {}

    def test_unrecorded_decisions_do_not_change_outcomes(self, services):
        slo = SLOPolicy(default_slo_seconds=0.2)

        def run(record):
            cluster = _cluster(services, "DynPre", ENGINE_FAST)
            controller = AdmissionController(slo, record_decisions=record)
            clients = ClosedLoopClients(
                WORKLOAD_POOL, num_clients=8, think_seconds=0.0, seed=3,
                max_requests=40, retry_backoff_seconds=0.05,
            )
            report = cluster.serve_online(
                clients, config=ServingConfig(controller=controller)
            )
            return controller, report

        recorded, report_a = run(True)
        unrecorded, report_b = run(False)
        assert _render(report_a) == _render(report_b)
        assert len(recorded.decisions) > 0
        assert len(report_a.decisions) == len(recorded.decisions)
        # The flag bounds memory: neither the controller log nor the
        # report's decision list accumulates.
        assert unrecorded.decisions == []
        assert report_b.decisions == []

    def test_shard_heap_matches_linear_min(self):
        import random

        rng = random.Random(7)
        heap = ShardHeap(5)
        busy = [0.0] * 5
        for _ in range(200):
            active = rng.randint(1, 5)
            expected = min(range(active), key=lambda i: (busy[i], i))
            assert heap.pick(active) == expected
            shard = rng.randrange(5)
            bump = busy[shard] + rng.random()
            busy[shard] = bump
            heap.update(shard, bump)
