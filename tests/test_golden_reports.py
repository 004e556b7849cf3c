"""Golden-report regression tests for the serving event loops.

One ``ClusterReport.as_dict()`` per dispatch policy (offline replay) plus one
fully controlled closed-loop run are serialized to ``tests/golden/`` and
asserted byte-stable across runs.  Any silent nondeterminism in the event
loop — iteration over an unordered container, a changed tie-break, float
reassociation — shows up here as a diff before it can corrupt benchmark
comparisons.

Regenerate after an *intentional* behaviour change with::

    PYTHONPATH=src python tests/test_golden_reports.py --regen
"""

import json
from pathlib import Path

import pytest

from repro.serving import (
    AdmissionController,
    Autoscaler,
    BatchScheduler,
    BurstyArrivals,
    ClosedLoopClients,
    DegradationPolicy,
    DISPATCH_POLICIES,
    ENGINE_FAST,
    ENGINES,
    OpenLoopArrivals,
    RandomFaults,
    ServingConfig,
    ServingController,
    ShardedServiceCluster,
    SLOPolicy,
    TenantQuota,
    TraceArrivals,
    merge_traces,
)
from repro.system.service import build_services
from repro.system.workload import WorkloadProfile

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Fixed synthetic workload mix (independent of the dataset registry).
GOLDEN_MIX = [
    WorkloadProfile(name="gold-a", num_nodes=30_000, num_edges=240_000, avg_degree=8.0,
                    batch_size=600),
    WorkloadProfile(name="gold-b", num_nodes=90_000, num_edges=990_000, avg_degree=11.0,
                    batch_size=1200),
]


def _scheduler() -> BatchScheduler:
    return BatchScheduler(max_batch_size=3, max_wait_seconds=0.004)


def _offline_report(services, policy: str, engine: str = ENGINE_FAST):
    trace = OpenLoopArrivals(GOLDEN_MIX, rate_rps=300.0, seed=13).trace(24)
    cluster = ShardedServiceCluster(
        services["StatPre"], num_shards=3, scheduler=_scheduler(), policy=policy,
        locality_spill_seconds=0.05, engine=engine,
    )
    return cluster.serve_trace(trace)


def _controlled_report(services, engine: str = ENGINE_FAST):
    cluster = ShardedServiceCluster(
        services["DynPre"], num_shards=3, scheduler=_scheduler(), engine=engine
    )
    slo = SLOPolicy(default_slo_seconds=0.5, per_workload={"gold-b": 0.4})
    scaler = Autoscaler(
        min_shards=1, max_shards=3, scale_up_depth=2.0, scale_down_depth=0.5,
        hysteresis_observations=2,
    )
    clients = ClosedLoopClients(
        GOLDEN_MIX, num_clients=10, think_seconds=0.01, seed=21, max_requests=40,
        retry_backoff_seconds=0.05,
    )
    return ServingController(cluster, slo=slo, autoscaler=scaler).serve(clients)


def _tenant_trace():
    """Three bursty tenants with staggered phases over the golden mix."""
    streams = [
        BurstyArrivals(
            GOLDEN_MIX, base_rate_rps=60.0, peak_rate_rps=600.0,
            period_seconds=0.4, burst_fraction=0.3, phase_seconds=phase,
            tenant=tenant, seed=31 + i,
        )
        for i, (tenant, phase) in enumerate(
            [("free", 0.0), ("pro", 0.15), ("ent", 0.25)]
        )
    ]
    return merge_traces([stream.trace(16) for stream in streams])


def _tenant_report(services, engine: str = ENGINE_FAST):
    """Fully tenant-aware controlled run: quotas, weighted shedding,
    weighted-fair batching, batching-aware admission and bursty traffic."""
    scheduler = BatchScheduler(
        max_batch_size=3, max_wait_seconds=0.004,
        tenant_weights={"free": 1.0, "pro": 2.0, "ent": 3.0},
    )
    cluster = ShardedServiceCluster(
        services["DynPre"], num_shards=3, scheduler=scheduler, engine=engine
    )
    slo = SLOPolicy(
        default_slo_seconds=0.5,
        per_workload={"gold-b": 0.45},
        per_tenant={
            "free": TenantQuota(guaranteed_rps=10.0, weight=1.0, limit_rps=300.0),
            "pro": TenantQuota(guaranteed_rps=30.0, weight=2.0),
            "ent": TenantQuota(guaranteed_rps=50.0, weight=3.0, slo_seconds=0.4),
        },
        excess_rps=20.0,
    )
    scaler = Autoscaler(
        min_shards=1, max_shards=3, scale_up_depth=2.0, scale_down_depth=0.5,
        hysteresis_observations=2,
    )
    controller = ServingController(
        cluster, slo=slo, autoscaler=scaler, batch_aware=True
    )
    return controller.serve(TraceArrivals(_tenant_trace()))


def _faulted_report(services, engine: str = ENGINE_FAST):
    """Online run under a seeded crash/recover/slowdown schedule.

    Exercises the whole fault path — migration parking, retry backoff,
    budget-exhausted failures, degraded-window accounting, liveness-aware
    admission — so any drift in the fault runtime's event ordering or float
    expressions lands here (the chosen seed produces nonzero migrated,
    retried AND failed counts).
    """
    trace = OpenLoopArrivals(GOLDEN_MIX, rate_rps=400.0, seed=43).trace(48)
    faults = RandomFaults(
        num_shards=3,
        horizon_seconds=trace[-1].arrival_seconds,
        mean_uptime_seconds=0.02,
        mean_downtime_seconds=0.08,
        slowdown_probability=0.25,
        slowdown_factor=2.5,
        retry_budget=1,
        retry_backoff_seconds=0.002,
        seed=47,
    ).schedule()
    cluster = ShardedServiceCluster(
        services["DynPre"], num_shards=3, scheduler=_scheduler(), engine=engine
    )
    admission = AdmissionController(policy=SLOPolicy(default_slo_seconds=0.5))
    return cluster.serve_online(
        TraceArrivals(trace), config=ServingConfig(controller=admission, faults=faults)
    )


def _degraded_report(services, engine: str = ENGINE_FAST):
    """Overloaded multi-tenant run with the degraded-quality tier active.

    Pins the whole graceful-degradation surface — per-tier goodput and
    tenant splits, degraded requests batching under their own key, the
    "degraded" admission reason — to a byte-stable report (the chosen rate
    produces nonzero full, degraded AND shed counts).
    """
    trace = _tenant_trace()
    config = ServingConfig(
        slo=SLOPolicy(
            default_slo_seconds=0.3,
            per_tenant={
                "free": TenantQuota(guaranteed_rps=5.0, weight=1.0),
                "pro": TenantQuota(guaranteed_rps=10.0, weight=2.0),
                "ent": TenantQuota(guaranteed_rps=15.0, weight=3.0),
            },
        ),
        admit=True,
        batch_aware=True,
        degradation=DegradationPolicy(k_factor=0.5, layer_drop=1),
    )
    cluster = ShardedServiceCluster(
        services["DynPre"], num_shards=2, scheduler=_scheduler(), engine=engine
    )
    return cluster.serve_online(TraceArrivals(trace), config=config)


def _render(report) -> str:
    return json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"


def _golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"cluster_report_{name}.json"


@pytest.fixture(scope="module")
def golden_services():
    return build_services()


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("policy", DISPATCH_POLICIES)
def test_offline_report_matches_golden(golden_services, policy, engine):
    rendered = _render(_offline_report(golden_services, policy, engine))
    expected = _golden_path(policy).read_text()
    assert rendered == expected, (
        f"ClusterReport for policy {policy!r} (engine {engine!r}) drifted from "
        "its golden copy; if the change is intentional, regenerate with "
        "`PYTHONPATH=src python tests/test_golden_reports.py --regen`"
    )


@pytest.mark.parametrize("engine", ENGINES)
def test_controlled_report_matches_golden(golden_services, engine):
    rendered = _render(_controlled_report(golden_services, engine))
    expected = _golden_path("controlled").read_text()
    assert rendered == expected


@pytest.mark.parametrize("engine", ENGINES)
def test_tenant_report_matches_golden(golden_services, engine):
    rendered = _render(_tenant_report(golden_services, engine))
    expected = _golden_path("tenant-fairness").read_text()
    assert rendered == expected, (
        f"tenant-fairness ClusterReport (engine {engine!r}) drifted from its "
        "golden copy; if the change is intentional, regenerate with "
        "`PYTHONPATH=src python tests/test_golden_reports.py --regen`"
    )


@pytest.mark.parametrize("engine", ENGINES)
def test_faulted_report_matches_golden(golden_services, engine):
    rendered = _render(_faulted_report(golden_services, engine))
    expected = _golden_path("faulted").read_text()
    assert rendered == expected, (
        f"faulted ClusterReport (engine {engine!r}) drifted from its golden "
        "copy; if the change is intentional, regenerate with "
        "`PYTHONPATH=src python tests/test_golden_reports.py --regen`"
    )


@pytest.mark.parametrize("engine", ENGINES)
def test_degraded_report_matches_golden(golden_services, engine):
    report = _degraded_report(golden_services, engine)
    rendered = _render(report)
    expected = _golden_path("degraded").read_text()
    assert rendered == expected, (
        f"degraded-tier ClusterReport (engine {engine!r}) drifted from its "
        "golden copy; if the change is intentional, regenerate with "
        "`PYTHONPATH=src python tests/test_golden_reports.py --regen`"
    )
    # The fixture must keep exercising all three service outcomes.
    goodput = report.goodput
    assert goodput.served_full > 0
    assert goodput.served_degraded > 0
    assert goodput.shed > 0


@pytest.mark.parametrize("policy", DISPATCH_POLICIES)
def test_offline_report_stable_across_runs(golden_services, policy):
    """Two fresh clusters over the same trace render identically."""
    assert _render(_offline_report(golden_services, policy)) == _render(
        _offline_report(golden_services, policy)
    )


def test_controlled_report_stable_across_runs(golden_services):
    assert _render(_controlled_report(golden_services)) == _render(
        _controlled_report(golden_services)
    )


def test_tenant_report_stable_across_runs(golden_services):
    assert _render(_tenant_report(golden_services)) == _render(
        _tenant_report(golden_services)
    )


def test_faulted_report_stable_across_runs(golden_services):
    assert _render(_faulted_report(golden_services)) == _render(
        _faulted_report(golden_services)
    )


def test_degraded_report_stable_across_runs(golden_services):
    assert _render(_degraded_report(golden_services)) == _render(
        _degraded_report(golden_services)
    )


def regenerate_all() -> None:
    """Rewrite every golden file from the current implementation."""
    services = build_services()
    GOLDEN_DIR.mkdir(exist_ok=True)
    for policy in DISPATCH_POLICIES:
        _golden_path(policy).write_text(_render(_offline_report(services, policy)))
        print(f"wrote {_golden_path(policy)}")
    _golden_path("controlled").write_text(_render(_controlled_report(services)))
    print(f"wrote {_golden_path('controlled')}")
    _golden_path("tenant-fairness").write_text(_render(_tenant_report(services)))
    print(f"wrote {_golden_path('tenant-fairness')}")
    _golden_path("faulted").write_text(_render(_faulted_report(services)))
    print(f"wrote {_golden_path('faulted')}")
    _golden_path("degraded").write_text(_render(_degraded_report(services)))
    print(f"wrote {_golden_path('degraded')}")


if __name__ == "__main__":  # pragma: no cover
    import sys

    if "--regen" in sys.argv:
        regenerate_all()
    else:
        sys.exit(pytest.main([__file__, "-q"]))
