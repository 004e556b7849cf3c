"""The unified ``ServingConfig`` surface, the only way to pass run options.

Three contracts:

1. *Validation*: a ``ServingConfig`` rejects contradictory field
   combinations at construction, ``serve_trace`` rejects online-only
   features (admission, autoscaling) up front, and the removed per-call
   keyword arguments are rejected outright.
2. *Shorthand equivalence*: ``admit=True`` renders **byte-identically** to
   the hand-built controller it stands for.
3. *Override hygiene*: per-run ``engine`` / ``tenant_weights`` overrides
   never leak into later runs on the same cluster.
"""

import json

import pytest
from conftest import WORKLOAD_POOL, make_bursty_tenant_trace

import repro.serving as serving
from repro.serving import (
    AdmissionController,
    Autoscaler,
    BatchScheduler,
    DegradationPolicy,
    ENGINE_FAST,
    ENGINE_REFERENCE,
    FAULT_CRASH,
    FaultEvent,
    FaultSchedule,
    OpenLoopArrivals,
    ServingConfig,
    ShardedServiceCluster,
    SLOPolicy,
    TraceArrivals,
)


def _render(report) -> str:
    return json.dumps(report.as_dict(), sort_keys=True)


def _slo() -> SLOPolicy:
    return SLOPolicy(default_slo_seconds=0.2)


def _faults() -> FaultSchedule:
    return FaultSchedule(
        events=(FaultEvent(seconds=0.02, shard_id=0, kind=FAULT_CRASH),),
        retry_budget=1,
        retry_backoff_seconds=0.005,
    )


def _trace(num_requests=24, seed=5):
    return OpenLoopArrivals(WORKLOAD_POOL, rate_rps=400.0, seed=seed).trace(
        num_requests
    )


def _cluster(services, **kwargs):
    kwargs.setdefault("num_shards", 2)
    kwargs.setdefault(
        "scheduler", BatchScheduler(max_batch_size=3, max_wait_seconds=0.003)
    )
    return ShardedServiceCluster(services["DynPre"], **kwargs)


# ---------------------------------------------------------------- validation
class TestValidation:
    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="engine"):
            ServingConfig(engine="warp")

    def test_rejects_admission_knobs_alongside_controller(self):
        controller = AdmissionController(policy=_slo())
        for knob in (
            {"record_decisions": False},
            {"batch_aware": True},
            {"degradation": DegradationPolicy()},
        ):
            with pytest.raises(ValueError, match="AdmissionController"):
                ServingConfig(controller=controller, **knob)

    def test_rejects_conflicting_slo_and_controller(self):
        with pytest.raises(ValueError, match="disagree"):
            ServingConfig(slo=_slo(), controller=AdmissionController(policy=_slo()))
        # The controller's own policy object is fine (scoring alias).
        controller = AdmissionController(policy=_slo())
        config = ServingConfig(slo=controller.policy, controller=controller)
        assert config.scoring_slo() is controller.policy

    def test_rejects_admission_without_slo(self):
        for kwargs in (
            {"admit": True},
            {"batch_aware": True},
            {"record_decisions": False},
            {"degradation": DegradationPolicy()},
        ):
            with pytest.raises(ValueError, match="slo"):
                ServingConfig(**kwargs)

    def test_rejects_fault_aware_without_faults(self):
        with pytest.raises(ValueError, match="faults"):
            ServingConfig(fault_aware=True)

    def test_rejects_bad_tenant_weights(self):
        with pytest.raises(ValueError, match="empty"):
            ServingConfig(tenant_weights={})
        with pytest.raises(ValueError, match="positive"):
            ServingConfig(tenant_weights={"free": 0.0})

    def test_serve_trace_rejects_online_only_features(self, services):
        cluster = _cluster(services)
        trace = _trace(4)
        with pytest.raises(ValueError, match="serve_online"):
            cluster.serve_trace(
                trace, config=ServingConfig(autoscaler=Autoscaler(max_shards=2))
            )
        with pytest.raises(ValueError, match="serve_online"):
            cluster.serve_trace(trace, config=ServingConfig(slo=_slo(), admit=True))

    def test_rejects_removed_legacy_kwargs(self, services):
        cluster = _cluster(services)
        trace = _trace(4)
        for legacy in ("slo", "faults"):
            with pytest.raises(TypeError, match=legacy):
                cluster.serve_trace(trace, **{legacy: None})
        for legacy in ("slo", "admission", "autoscaler", "faults"):
            with pytest.raises(TypeError, match=legacy):
                cluster.serve_online(TraceArrivals(trace), **{legacy: None})

    def test_engine_names_validated_once(self, services):
        with pytest.raises(ValueError) as from_config:
            ServingConfig(engine="warp")
        with pytest.raises(ValueError) as from_cluster:
            _cluster(services, engine="warp")
        assert str(from_config.value) == str(from_cluster.value)
        assert str(serving.ENGINES) in str(from_config.value)

    def test_resolved_controller_carries_knobs(self):
        config = ServingConfig(
            slo=_slo(),
            admit=True,
            batch_aware=True,
            record_decisions=False,
            degradation=DegradationPolicy(k_factor=0.5),
        )
        controller = config.resolved_controller()
        assert controller.batch_aware is True
        assert controller.record_decisions is False
        assert controller.degradation is config.degradation
        # Score-only config builds no controller at all.
        assert ServingConfig(slo=_slo()).resolved_controller() is None

    def test_resolved_faults_applies_override(self):
        faults = _faults()
        assert ServingConfig(faults=faults).resolved_faults() is faults
        same = ServingConfig(faults=faults, fault_aware=True).resolved_faults()
        assert same is faults  # no-op override keeps the original object
        flipped = ServingConfig(faults=faults, fault_aware=False).resolved_faults()
        assert flipped.fault_aware is False
        assert flipped.events == faults.events


# ------------------------------------------------------- admission shorthand
class TestLegacyShim:
    """``admit=True`` is shorthand for a hand-built controller.

    (The class keeps its name from the removed legacy-kwarg shim suite.)
    """

    def test_admit_shorthand_equals_handbuilt_controller(self, services):
        trace = _trace()
        slo = _slo()
        handbuilt = _cluster(services).serve_online(
            TraceArrivals(trace),
            config=ServingConfig(controller=AdmissionController(policy=slo)),
        )
        shorthand = _cluster(services).serve_online(
            TraceArrivals(trace), config=ServingConfig(slo=slo, admit=True)
        )
        assert _render(handbuilt) == _render(shorthand)


# ------------------------------------------------------------------ overrides
class TestRunOverrides:
    def test_engine_override_is_applied_and_restored(self, services):
        trace = _trace()
        reference = _cluster(services, engine=ENGINE_REFERENCE)
        fast = _cluster(services, engine=ENGINE_FAST)
        overridden = reference.serve_trace(
            trace, config=ServingConfig(engine=ENGINE_FAST)
        )
        assert reference.engine == ENGINE_REFERENCE  # restored after the run
        native = fast.serve_trace(trace)
        assert _render(overridden) == _render(native)
        # Fast-engine artifacts (streaming aggregates) prove the override ran.
        assert overridden.aggregates is not None

    def test_tenant_weights_override_is_applied_and_restored(self, services):
        trace = make_bursty_tenant_trace(WORKLOAD_POOL, num_per_tenant=10, seed=3)
        weights = {"ent": 3.0, "free": 1.0, "pro": 2.0}
        plain_scheduler = BatchScheduler(max_batch_size=3, max_wait_seconds=0.003)
        cluster = _cluster(services, scheduler=plain_scheduler)
        overridden = cluster.serve_trace(
            trace, config=ServingConfig(tenant_weights=weights)
        )
        assert cluster.scheduler is plain_scheduler  # restored after the run
        weighted = _cluster(
            services,
            scheduler=BatchScheduler(
                max_batch_size=3, max_wait_seconds=0.003, tenant_weights=weights
            ),
        ).serve_trace(trace)
        assert _render(overridden) == _render(weighted)
        # And the override really changed batch formation vs the plain run.
        plain = _cluster(services, scheduler=plain_scheduler).serve_trace(trace)
        assert _render(plain) != _render(overridden)


# ------------------------------------------------------------------- exports
def test_public_surface_is_importable():
    for name in serving.__all__:
        assert hasattr(serving, name), name
    for name in (
        "ServingConfig",
        "DegradationPolicy",
        "QUALITY_FULL",
        "QUALITY_DEGRADED",
        "QUALITY_TIERS",
    ):
        assert name in serving.__all__


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(pytest.main([__file__, "-q"]))
