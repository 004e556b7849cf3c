"""The unified ``ServingConfig`` surface, the only way to pass run options.

Three contracts:

1. *Validation*: a ``ServingConfig`` rejects contradictory field
   combinations at construction, ``serve_trace`` rejects online-only
   features (admission, autoscaling) up front, and the removed per-call
   keyword arguments are rejected outright.
2. *Admission*: ``admit=True`` and the admission knobs build a fresh
   controller for every run.
3. *Override hygiene*: per-run ``engine`` / ``tenant_weights`` overrides
   never leak into later runs on the same cluster.
"""

import json
import math

import pytest
from conftest import WORKLOAD_POOL

import repro.serving as serving
from repro.serving import (
    Autoscaler,
    BatchScheduler,
    BurstyArrivals,
    DegradationPolicy,
    OpenLoopArrivals,
    ServingConfig,
    ShardedServiceCluster,
    SLOPolicy,
    TenantQuota,
    TraceArrivals,
)


def _render(report) -> str:
    return json.dumps(report.as_dict(), sort_keys=True)


def _slo() -> SLOPolicy:
    return SLOPolicy(default_slo_seconds=0.2)


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
    def test_rejects_unknown_engine(self, services):
        with pytest.raises(ValueError, match="engine"):
            _cluster(services, engine="warp")

    def test_rejects_admission_without_slo(self):
        for kwargs in (
            {"admit": True},
            {"batch_aware": True},
            {"record_decisions": False},
            {"degradation": DegradationPolicy()},
        ):
            with pytest.raises(ValueError, match="slo"):
                ServingConfig(**kwargs)

    def test_rejects_bad_tenant_weights(self):
        with pytest.raises(ValueError, match="positive"):
            BatchScheduler(tenant_weights={"free": 0.0})

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
        # The engine is a construction-time choice; a run cannot swap it.
        for construction_only in ("engine", "tenant_weights", "topology", "placement"):
            with pytest.raises(TypeError, match=construction_only):
                ServingConfig(**{construction_only: None})
        with pytest.raises(ValueError) as from_cluster:
            _cluster(services, engine="warp")
        assert str(serving.ENGINES) in str(from_cluster.value)

    def test_resolved_controller_carries_knobs(self):
        config = ServingConfig(
            slo=_slo(),
            admit=True,
            batch_aware=True,
            record_decisions=False,
            degradation=DegradationPolicy(k_factor=0.5),
        )
        controller = config.resolved_controller()
        # The run reads the batch-aware and decision-log knobs off the
        # config; the controller carries the policy and the degradation.
        assert config.batch_aware is True
        assert config.record_decisions is False
        assert controller.policy is config.slo
        assert controller.degradation is config.degradation
        # Each run gets its own controller, so no state crosses runs.
        assert config.resolved_controller() is not controller
        # Score-only config builds no controller at all.
        assert ServingConfig(slo=_slo()).resolved_controller() is None
        # Admission is configured only through the knobs above.
        with pytest.raises(TypeError, match="controller"):
            ServingConfig(controller=None)



_NAN = math.nan
_INF = math.inf


def _bursty(**kwargs):
    fields = dict(base_rate_rps=50.0, peak_rate_rps=500.0, period_seconds=0.4)
    fields.update(kwargs)
    return BurstyArrivals(WORKLOAD_POOL, **fields)


_NON_FINITE_CASES = [
    (_bursty, {"base_rate_rps": _NAN}, "base_rate_rps"),
    (_bursty, {"base_rate_rps": _INF, "peak_rate_rps": _INF}, "base_rate_rps"),
    (_bursty, {"peak_rate_rps": _INF}, "peak_rate_rps"),
    (_bursty, {"period_seconds": _NAN}, "period_seconds"),
    (_bursty, {"phase_seconds": _NAN}, "phase_seconds"),
    (_bursty, {"phase_seconds": -_INF}, "phase_seconds"),
    (BatchScheduler, {"tenant_weights": {"a": _NAN}}, "tenant 'a'"),
    (BatchScheduler, {"tenant_weights": {"a": _INF}}, "tenant 'a'"),
    (TenantQuota, {"guaranteed_rps": _NAN}, "guaranteed_rps"),
    (TenantQuota, {"weight": _NAN}, "weight"),
    (TenantQuota, {"weight": _INF}, "weight"),
    (TenantQuota, {"slo_seconds": _NAN}, "slo_seconds"),
    (TenantQuota, {"limit_rps": _NAN}, "limit_rps"),
    (TenantQuota, {"burst_seconds": _NAN}, "burst_seconds"),
    (TenantQuota, {"burst_seconds": _INF}, "burst_seconds"),
    (SLOPolicy, {"default_slo_seconds": _NAN}, "default_slo_seconds"),
    (SLOPolicy, {"default_slo_seconds": 1.0, "per_workload": {"x": _NAN}}, "workload 'x'"),
    (SLOPolicy, {"default_slo_seconds": 1.0, "excess_rps": _NAN}, "excess_rps"),
]


@pytest.mark.parametrize(
    "factory,kwargs,field",
    _NON_FINITE_CASES,
    ids=[f"{factory.__name__}-{kwargs}" for factory, kwargs, _ in _NON_FINITE_CASES],
)
def test_rejects_non_finite_inputs(factory, kwargs, field):
    """NaN is rejected everywhere, and inf wherever it has no meaning, with
    a message that names the field and the valid range."""
    with pytest.raises(ValueError, match=field) as error:
        factory(**kwargs)
    assert "number" in str(error.value)
    # An infinite SLO or rate cap stays valid: it disables the check.
    TenantQuota(slo_seconds=_INF, limit_rps=_INF)
    SLOPolicy(default_slo_seconds=_INF, excess_rps=_INF)


@pytest.mark.parametrize(
    "owner,field",
    [
        ("cluster", "locality_spill_seconds"),
        ("autoscaler", "scale_up_depth"),
        ("autoscaler", "scale_down_depth"),
        ("autoscaler", "warmup_seconds"),
    ],
)
def test_rejects_nan_dispatch_and_scaling_thresholds(services, owner, field):
    """NaN fails every comparison: an accepted NaN spill threshold spills
    every batch, and an accepted NaN scale-up depth never scales up."""
    with pytest.raises(ValueError, match=field) as error:
        if owner == "cluster":
            ShardedServiceCluster(services["CPU"], **{field: _NAN})
        else:
            Autoscaler(**{field: _NAN})
    assert "number" in str(error.value)
    # An infinite spill threshold stays valid: it pins strictly.
    ShardedServiceCluster(services["CPU"], locality_spill_seconds=_INF)


@pytest.mark.parametrize(
    "field,value",
    [
        ("min_shards", 1.5),
        ("min_shards", _NAN),
        ("max_shards", 4.5),
        ("max_shards", 4.0),
        ("hysteresis_observations", 2.5),
        ("hysteresis_observations", _NAN),
    ],
)
def test_autoscaler_counts_must_be_integers(field, value):
    """A fractional shard count would slice the cluster's shard order in
    the serving loop; NaN passes every ``< 1`` check."""
    with pytest.raises(ValueError, match=rf"{field} must be an integer >= \d+, got {value}"):
        Autoscaler(**{field: value})


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
