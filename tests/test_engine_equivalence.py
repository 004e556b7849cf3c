"""Reference ↔ fast engine equivalence: the fast engine's headline contract.

``ShardedServiceCluster(engine="fast")`` must produce **byte-identical**
``ClusterReport.as_dict()`` output to ``engine="reference"`` — the golden
files pin specific runs, and the suites here sweep the space: every system,
every dispatch policy, randomized traces and scheduler parameters
(hypothesis), the online loop with and without the control plane, and the
batching timeout boundaries where a tie-break bug would first show up.
"""

import dataclasses
import hashlib
import json

import pytest
from conftest import (
    SYSTEM_NAMES,
    TENANTS,
    WORKLOAD_POOL,
    chunked_calls,
    make_bursty_tenant_trace,
    make_profile,
)
from hypothesis import given, settings, strategies as st

from repro.serving import (
    AdmissionDecision,
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
from repro.serving.engine import ShardHeap
from repro.system.service import GNNService, build_services
from repro.system.workload import QUALITY_DEGRADED


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

    @pytest.mark.parametrize("name", SYSTEM_NAMES)
    def test_all_systems_least_loaded_under_topology(self, services, name):
        """The chunked loop's heap pick with failure domains declared."""
        trace = OpenLoopArrivals(WORKLOAD_POOL, rate_rps=400.0, seed=5).trace(40)
        scheduler = BatchScheduler(max_batch_size=3, max_wait_seconds=0.004)
        reference, fast = _pair(
            services, name, num_shards=4, scheduler=scheduler,
            topology=ClusterTopology.uniform(4, 2),
        )
        expected = _render(reference.serve_trace(trace))
        with chunked_calls() as calls:
            assert _render(fast.serve_trace(trace)) == expected
        assert len(calls) == 1

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

    @settings(max_examples=20, deadline=None)
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
        pro_slo_ms=st.sampled_from([None, 30.0, 400.0]),
        ent_no_degrade=st.booleans(),
        excess_rps=st.sampled_from([0.0, 15.0]),
        degrade=st.booleans(),
        batch_aware=st.booleans(),
    )
    def test_property_sweep_tenants(
        self, services, name, seed, num_per_tenant, peak, max_batch_size,
        max_wait_ms, num_shards, fair, slo_ms, pro_slo_ms, ent_no_degrade,
        excess_rps, degrade, batch_aware,
    ):
        """Quota-tiered admission across tenants, with per-tenant SLO
        overrides, a ``no_degrade`` tenant, a shared excess budget, the
        degraded tier and ``batch_aware`` pricing in any combination."""
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
            per_tenant={
                "free": TenantQuota(guaranteed_rps=20.0),
                "pro": TenantQuota(
                    weight=2.0,
                    slo_seconds=pro_slo_ms * 1e-3 if pro_slo_ms is not None else None,
                ),
                "ent": TenantQuota(weight=3.0, no_degrade=ent_no_degrade),
            },
            excess_rps=excess_rps,
        )
        config = ServingConfig(
            slo=slo,
            admit=True,
            batch_aware=batch_aware,
            degradation=DegradationPolicy(k_factor=0.5, layer_drop=1) if degrade else None,
        )

        def run(engine):
            cluster = _cluster(
                services, name, engine, num_shards=num_shards, scheduler=scheduler
            )
            return cluster.serve_online(TraceArrivals(trace), config=config)

        reference, fast = run(ENGINE_REFERENCE), run(ENGINE_FAST)
        assert _render(reference) == _render(fast)
        assert reference.decisions == fast.decisions
        if ent_no_degrade:
            assert not any(
                decision.degraded for decision in fast.decisions
                if decision.tenant == "ent"
            )


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

#: The dispatch axis.  Its first slot runs locality that never spills (the
#: default ``locality_spill_seconds=inf``); the ``locality`` slot spills
#: past a 20 ms backlog.  The slot order is fixed, so every cell keeps its
#: index (trace seed and system).
_PINNED_LOCALITY = "locality-pinned"
_POLICY_SLOTS = (_PINNED_LOCALITY,) + DISPATCH_POLICIES

#: Online matrix: policy x fair batching x faults x autoscaler x topology.
_ONLINE_CELLS = [
    (policy, fair, faulted, scaler, topology)
    for modes in _FAULT_MODES
    for policy in _POLICY_SLOTS
    for fair in (False, True)
    for faulted in modes
    for scaler in ("none", "drain", "no-drain")
    for topology in (False, True)
]

#: Offline matrix: policy x fair batching x faults x topology.
_OFFLINE_CELLS = [
    (policy, fair, faulted, topology)
    for modes in _FAULT_MODES
    for policy in _POLICY_SLOTS
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
        pinned = policy == _PINNED_LOCALITY
        return ShardedServiceCluster(
            services[system],
            num_shards=self.NUM_SHARDS,
            engine=engine,
            policy="locality" if pinned else policy,
            scheduler=BatchScheduler(
                max_batch_size=3,
                max_wait_seconds=0.004,
                tenant_weights=self.WEIGHTS if fair else None,
            ),
            locality_spill_seconds=float("inf") if pinned else 0.02,
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
            with chunked_calls() as calls:
                report = cluster.serve_trace(trace, config=config)
            # Only fault-free, non-fair, least-loaded fast replays take the
            # chunked loop.
            chunked = (
                engine == ENGINE_FAST
                and policy == "least-loaded"
                and not fair
                and not faulted
            )
            assert len(calls) == int(chunked)
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

    def test_event_loop_served_log_is_lazy(self, services):
        """An online run with faults, drain and degradation: the fast
        event loop's log stays unmaterialized through ``as_dict``, its
        records equal the reference backend's list, and ``compact()``
        renders the same bytes."""
        trace = make_bursty_tenant_trace(
            WORKLOAD_POOL, num_per_tenant=60, base_rate_rps=2.0,
            peak_rate_rps=40.0, seed=2,
        )
        faults = RandomFaults(
            num_shards=4,
            horizon_seconds=trace[-1].arrival_seconds,
            mean_uptime_seconds=0.1,
            mean_downtime_seconds=0.05,
            retry_budget=2,
            retry_backoff_seconds=0.002,
            seed=2,
        ).schedule()
        config = ServingConfig(
            slo=SLOPolicy(default_slo_seconds=0.6),
            admit=True,
            degradation=DegradationPolicy(k_factor=0.5, layer_drop=1),
            autoscaler=Autoscaler(
                min_shards=1, max_shards=4, scale_up_depth=3.0,
                scale_down_depth=1.0, hysteresis_observations=2, drain=True,
            ),
            faults=faults,
        )
        reference, fast = (
            _cluster(
                services, "DynPre", engine, num_shards=4,
                scheduler=BatchScheduler(max_batch_size=3, max_wait_seconds=0.003),
            ).serve_online(TraceArrivals(trace), config=config)
            for engine in (ENGINE_REFERENCE, ENGINE_FAST)
        )
        assert fast.num_shed and fast.num_degraded and fast.faults.migrated
        assert any(event.reason == "scale-down" for event in fast.scaling_timeline)
        log = fast.served
        rendered = _render(fast)
        assert log._records is None
        assert rendered == _render(reference)
        assert isinstance(reference.served, list)
        assert log == reference.served
        assert list(log) == reference.served
        fast.compact()
        assert fast.served == []
        assert _render(fast) == rendered

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

    @pytest.mark.parametrize("engine", [ENGINE_REFERENCE, ENGINE_FAST])
    @pytest.mark.parametrize("policy", DISPATCH_POLICIES)
    def test_repeat_runs_render_the_same_bytes(self, services, policy, engine):
        """A cluster keeps no per-run dispatch state: on the stateless GPU
        system, a replay repeated on the same cluster, offline or online
        under an autoscaler, renders the bytes of its first run."""
        trace = make_bursty_tenant_trace(
            WORKLOAD_POOL, num_per_tenant=15, peak_rate_rps=900.0, seed=3
        )
        cluster = _cluster(
            services, "GPU", engine, num_shards=4, policy=policy,
            scheduler=BatchScheduler(max_batch_size=3, max_wait_seconds=0.004),
            locality_spill_seconds=0.02, topology=ClusterTopology.uniform(4, 2),
        )
        config = ServingConfig(
            autoscaler=Autoscaler(
                min_shards=1, max_shards=4, scale_up_depth=3.0,
                scale_down_depth=0.5, hysteresis_observations=2,
            )
        )
        runs = (
            lambda: cluster.serve_trace(trace),
            lambda: cluster.serve_online(TraceArrivals(trace), config=config),
        )
        for run in runs:
            first = _render(run())
            assert _render(run()) == first

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
            assert fast_shard.preprocessing.state_key() == (
                ref_shard.preprocessing.state_key()
            )
            assert fast_shard.preprocessing.reconfig.events == (
                ref_shard.preprocessing.reconfig.events
            )
        assert any(shard.preprocessing.reconfig.events for shard in fast.shards)

    @pytest.mark.parametrize("first", ["chunked", "event"])
    def test_state_hand_off_between_the_two_fast_loops(self, services, first):
        """Both fast loops skip ``apply_state`` on a hit that keeps the
        shard's state id, so each must leave the shards in the state the
        other then starts from.  One DynPre cluster replays one trace
        through each loop, in either order; after every replay each shard's
        state and reconfiguration log, and the report, equal those of a
        cluster that ran the reference backend throughout."""
        traces = [
            OpenLoopArrivals(WORKLOAD_POOL, rate_rps=400.0, seed=seed).trace(60)
            for seed in (6, 7)
        ]
        loops = ["chunked", "event"] if first == "chunked" else ["event", "chunked"]
        scheduler = BatchScheduler(max_batch_size=3, max_wait_seconds=0.004)
        reference, fast = _pair(services, "DynPre", scheduler=scheduler)
        batches = 0
        for trace, loop in zip(traces, loops):
            with chunked_calls() as calls:
                if loop == "chunked":
                    report = fast.serve_trace(trace)
                else:
                    report = fast.serve_online(TraceArrivals(trace))
            assert len(calls) == (loop == "chunked")
            assert _render(report) == _render(reference.serve_trace(trace))
            batches += report.num_batches
            for ref_shard, fast_shard in zip(reference.shards, fast.shards):
                assert fast_shard.preprocessing.state_key() == (
                    ref_shard.preprocessing.state_key()
                )
                assert fast_shard.preprocessing.reconfig.events == (
                    ref_shard.preprocessing.reconfig.events
                )
        assert len(fast._serve_cache) < batches
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
        assert first._shortlists is second._shortlists
        assert first._candidates is second._candidates
        assert first._candidates.configs == tuple(template.preprocessing.library.configurations())
        assert first.cost_model is second.cost_model
        assert first.reconfig is not second.reconfig
        trace = OpenLoopArrivals(WORKLOAD_POOL, rate_rps=400.0, seed=5).trace(30)
        cluster.serve_trace(trace)
        cluster.serve_online(TraceArrivals(trace))
        assert first._latency_cache and first._configured_cache and first._shortlists
        system = template.preprocessing
        assert system._latency_cache == {}
        assert system._configured_cache == {}
        assert system._shortlists == {}
        assert template._inference_cache == {}
        assert template._cost_cache == {}

    def test_estimates_priced_once_per_distinct_key(self, services):
        """Admission with degradation and ``batch_aware`` pricing: the fast
        backend's per-run tables ask the template for each distinct
        ``(state, batch key, size)`` estimate at most once, and its report
        and decision log equal the reference backend's, which prices every
        request directly."""
        trace = make_bursty_tenant_trace(WORKLOAD_POOL, num_per_tenant=25, seed=11)
        config = ServingConfig(
            slo=SLOPolicy(
                default_slo_seconds=0.05,
                per_tenant={
                    "free": TenantQuota(guaranteed_rps=10.0),
                    "pro": TenantQuota(slo_seconds=0.08, no_degrade=True),
                },
            ),
            admit=True,
            batch_aware=True,
            degradation=DegradationPolicy(k_factor=0.5, layer_drop=1),
        )
        scheduler = BatchScheduler(max_batch_size=3, max_wait_seconds=0.004)
        original = GNNService.estimate_service_seconds
        priced = []

        def spy(self, workload):
            priced.append(
                (self.preprocessing.state_key(), workload.batch_key, workload.batch_size)
            )
            return original(self, workload)

        def run(engine):
            priced.clear()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(GNNService, "estimate_service_seconds", spy)
                report = _cluster(
                    services, "DynPre", engine, scheduler=scheduler
                ).serve_online(TraceArrivals(trace), config=config)
            return report, list(priced)

        reference, reference_priced = run(ENGINE_REFERENCE)
        fast, fast_priced = run(ENGINE_FAST)
        assert len(fast_priced) == len(set(fast_priced))
        assert set(fast_priced) == set(reference_priced)
        assert len(reference_priced) > len(trace)
        # The run priced merged batches and degraded profiles, and used
        # every admission outcome.
        request_sizes = {workload.batch_size for workload in WORKLOAD_POOL}
        assert any(size not in request_sizes for _, _, size in fast_priced)
        assert any(key[-1] == QUALITY_DEGRADED for _, key, _ in fast_priced)
        assert fast.num_shed and fast.num_degraded
        assert _render(fast) == _render(reference)
        assert fast.decisions == reference.decisions

    def test_price_tables_do_not_outlive_a_run(self, services):
        """Two runs on one cluster render the reference backend's bytes.
        After the template's preprocessing state changes between runs, the
        next run prices against the new state, as a fresh cluster does:
        no table survives its run."""
        template = services["DynPre"].replicate()
        # One request per second: every shard is idle at each arrival and
        # nothing is pending, so a prediction is exactly the estimate.
        trace = RequestTrace(
            [
                InferenceRequest(
                    request_id=i,
                    arrival_seconds=float(i),
                    workload=WORKLOAD_POOL[i % len(WORKLOAD_POOL)],
                    tenant=TENANTS[i % len(TENANTS)],
                )
                for i in range(9)
            ]
        )
        config = ServingConfig(
            slo=SLOPolicy(default_slo_seconds=1.0),
            admit=True,
            degradation=DegradationPolicy(),
        )
        fast = ShardedServiceCluster(template, num_shards=2, engine=ENGINE_FAST)
        reference = ShardedServiceCluster(template, num_shards=2, engine=ENGINE_REFERENCE)

        def serve(cluster):
            return cluster.serve_online(TraceArrivals(trace), config=config)

        first, second = serve(fast), serve(fast)
        assert _render(first) == _render(serve(reference))
        assert _render(second) == _render(serve(reference))
        assert first.decisions == second.decisions

        before = [template.estimate_service_seconds(w) for w in WORKLOAD_POOL]
        template.serve(WORKLOAD_POOL[1])
        after = [template.estimate_service_seconds(w) for w in WORKLOAD_POOL]
        assert before != after, "the template's new state must move an estimate"
        third = serve(fast)
        fresh = serve(ShardedServiceCluster(template, num_shards=2, engine=ENGINE_FAST))
        assert third.decisions == fresh.decisions
        assert [d.predicted_sojourn for d in third.decisions] == [
            template.estimate_service_seconds(request.workload) for request in trace
        ]
        assert _render(third) == _render(serve(reference))

    #: SHA-256 of the recorded decision logs below, field for field, as the
    #: controller built them when it returned an ``AdmissionDecision`` per
    #: arrival: the plain-value verdict must log the same records.
    DECISION_DIGESTS = {
        "closed-loop": "160842cc7c1e91643721b6f96e64dc6d1434a3cab2e3b12ee30e3f1de582ebde",
        "tiered": "b40b9a990b7d5f33f3c055fcad68ae353d8730d4d41341317a8e7f8f0f136dc9",
    }

    @pytest.mark.parametrize("engine", [ENGINE_REFERENCE, ENGINE_FAST])
    @pytest.mark.parametrize("case", ["closed-loop", "tiered"])
    def test_unrecorded_decisions_do_not_change_outcomes(self, services, engine, case):
        """With ``record_decisions=False`` the run renders the same bytes
        and builds no ``AdmissionDecision``.  The tiered case reaches all
        six admission reasons."""
        if case == "closed-loop":
            # Sheds two of the 40 arrivals, so the retries see the verdicts.
            slo = SLOPolicy(default_slo_seconds=0.5)
            degradation = None
            cluster_kwargs = {}

            def arrivals():
                return ClosedLoopClients(
                    WORKLOAD_POOL, num_clients=8, think_seconds=0.0, seed=3,
                    max_requests=40, retry_backoff_seconds=0.05,
                )
        else:
            slo = SLOPolicy(
                default_slo_seconds=0.45,
                per_tenant={
                    "free": TenantQuota(
                        guaranteed_rps=20.0, limit_rps=30.0, burst_seconds=0.05
                    ),
                    "pro": TenantQuota(weight=2.0),
                    "ent": TenantQuota(weight=3.0, guaranteed_rps=5.0),
                },
                excess_rps=10.0,
            )
            degradation = DegradationPolicy(k_factor=0.5, layer_drop=1)
            cluster_kwargs = dict(
                num_shards=2,
                scheduler=BatchScheduler(max_batch_size=3, max_wait_seconds=0.004),
            )
            trace = make_bursty_tenant_trace(WORKLOAD_POOL, num_per_tenant=20, seed=4)

            def arrivals():
                return TraceArrivals(trace)

        built = []
        original_init = AdmissionDecision.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            original_init(self, *args, **kwargs)

        def run(record):
            built.clear()
            config = ServingConfig(
                slo=slo, admit=True, degradation=degradation, record_decisions=record
            )
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(AdmissionDecision, "__init__", counting_init)
                report = _cluster(services, "DynPre", engine, **cluster_kwargs).serve_online(
                    arrivals(), config=config
                )
            return report, len(built)

        report_a, built_a = run(True)
        report_b, built_b = run(False)
        assert _render(report_a) == _render(report_b)
        assert built_a == len(report_a.decisions) == report_a.num_offered
        # The flag bounds memory: no record is built and the list stays empty.
        assert built_b == 0
        assert report_b.decisions == []
        rows = json.dumps([dataclasses.asdict(d) for d in report_a.decisions])
        assert hashlib.sha256(rows.encode()).hexdigest() == self.DECISION_DIGESTS[case]
        if case == "tiered":
            assert {d.reason for d in report_a.decisions} == {
                "rate-limit", "guaranteed", "predicted", "degraded",
                "weighted-excess", "overload",
            }

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
