"""Serving layer: request traffic, batching, sharded clusters, control plane.

This package lifts the reproduction from single-pass modelling to a served
traffic regime:

* :mod:`repro.serving.requests` — timestamped, tenant-tagged requests,
  open-loop and burst/diurnal (:class:`BurstyArrivals`) arrival generators
  over workload profiles, multi-tenant trace merging (:func:`merge_traces`)
  and the online arrival sources (trace replay, co-simulated closed-loop
  clients).
* :mod:`repro.serving.scheduler` — size-or-timeout coalescing of compatible
  requests into batched preprocessing passes, with optional weighted-fair
  (deficit round-robin) slot allocation across tenants
  (:class:`TenantFairBatcher`).
* :mod:`repro.serving.cluster` — N-way replicated GNN services with
  least-loaded or reconfiguration-state-aware locality dispatch (each pick
  a pure function of the batch, the busy horizons and the candidates),
  one offline trace-replay loop and one online co-simulated event loop,
  merged into cluster reports (throughput, latency percentiles, queueing
  decomposition, utilisation, goodput/shed accounting).
* :mod:`repro.serving.control` — the SLO-aware control plane: per-workload
  latency objectives, per-tenant quotas (:class:`TenantQuota`: guaranteed
  rates, weighted excess shedding, hard caps), predictive / batching-aware
  admission control with graceful degradation
  (:class:`DegradationPolicy`: downgrade to a cheaper quality tier instead
  of shedding) and a hysteresis queue-depth autoscaler with bitstream
  warm-up penalties.
* :mod:`repro.serving.config` — :class:`ServingConfig`, the validated
  configuration object behind ``serve_trace(trace, config=...)`` /
  ``serve_online(source, config=...)`` and the only way to pass per-run
  options (SLO, admission, degradation, autoscaler, faults).  The engine,
  topology and scheduler are fixed when the cluster is built.
* :mod:`repro.serving.faults` — deterministic shard failure injection
  (:class:`FaultSchedule`: crash / recover / slowdown events, or a seeded
  :class:`RandomFaults` generator) with drain-and-migrate recovery, retry
  with exponential backoff, and exact served/shed/failed conservation —
  driven by the one event loop on either backend.  The same machinery backs
  *voluntary* drains (:class:`DrainPlanner`): an autoscaler scale-down
  with ``drain=True`` migrates queued work to surviving shards instead of
  stranding it on the deactivated shard.  Both drive the event loop's run
  directly, and every dispatch ends in its one placement step.
* :mod:`repro.serving.topology` — :class:`ClusterTopology`, the mapping
  from shards to correlated failure domains (racks, zones).  Domain-level
  fault events (``crash_domain`` / ``recover_domain``) expand against it,
  :class:`RandomFaults` can draw seeded whole-domain outages from a
  :class:`CorrelatedFaults` profile, and dispatch / autoscaler activation /
  drain re-pick become domain-aware (activation round-robins across
  domains).
* :mod:`repro.serving.chaos` — the chaos-sweep invariant harness: seeded
  scenario schedules (whole-domain outages racing autoscaler drains, retry
  storms, recover-at-the-same-instant edges) replayed on both backends,
  asserting request conservation, backend byte-identity, no dispatch onto
  dead or deactivated shards, retry-budget compliance and lease accounting
  on every run (``python -m repro.serving.chaos``).
* :mod:`repro.serving.engine` — the two backends the event loop runs on,
  picked by ``ShardedServiceCluster(engine=...)``: ``"reference"`` (plain
  scans and direct serves) and ``"fast"``, the default (serve-transition
  caching, array-level batch formation, shard/deadline heaps, streaming
  report aggregates and the chunked offline loop), byte-identical to the
  reference and >= 5x faster on 20k-request traces (100k requests in
  seconds).
"""

from repro.serving.requests import (
    DEFAULT_TENANT,
    BurstyArrivals,
    ClosedLoopClients,
    InferenceRequest,
    OpenLoopArrivals,
    RequestTrace,
    TraceArrays,
    TraceArrivals,
    merge_traces,
)
from repro.serving.scheduler import BatchScheduler, RequestBatch, TenantFairBatcher
from repro.serving.engine import ENGINE_FAST, ENGINE_REFERENCE, ENGINES
from repro.serving.cluster import (
    DISPATCH_POLICIES,
    POLICY_LEAST_LOADED,
    POLICY_LOCALITY,
    ClusterReport,
    ReportAggregates,
    ServedRequest,
    ShardedServiceCluster,
    ShedRecord,
)
from repro.serving.topology import ClusterTopology
from repro.serving.faults import (
    DOMAIN_FAULT_KINDS,
    FAULT_CRASH,
    FAULT_CRASH_DOMAIN,
    FAULT_KINDS,
    FAULT_RECOVER,
    FAULT_RECOVER_DOMAIN,
    FAULT_SLOWDOWN,
    CorrelatedFaults,
    DomainFaultEvent,
    DomainOutageStats,
    DrainPlanner,
    FaultEvent,
    FaultSchedule,
    FaultStats,
    RandomFaults,
)
from repro.serving.control import (
    AdmissionController,
    AdmissionDecision,
    Autoscaler,
    DegradationPolicy,
    ScalingEvent,
    SLOPolicy,
    TenantQuota,
)
from repro.serving.config import ServingConfig
from repro.system.workload import QUALITY_DEGRADED, QUALITY_FULL, QUALITY_TIERS

__all__ = [
    "InferenceRequest",
    "RequestTrace",
    "TraceArrays",
    "DEFAULT_TENANT",
    "OpenLoopArrivals",
    "ClosedLoopClients",
    "BurstyArrivals",
    "merge_traces",
    "TraceArrivals",
    "BatchScheduler",
    "RequestBatch",
    "TenantFairBatcher",
    "TenantQuota",
    "ShardedServiceCluster",
    "ServedRequest",
    "ShedRecord",
    "ClusterReport",
    "ReportAggregates",
    "DISPATCH_POLICIES",
    "ENGINES",
    "ENGINE_REFERENCE",
    "ENGINE_FAST",
    "POLICY_LEAST_LOADED",
    "POLICY_LOCALITY",
    "ClusterTopology",
    "DrainPlanner",
    "FaultEvent",
    "DomainFaultEvent",
    "CorrelatedFaults",
    "FaultSchedule",
    "FaultStats",
    "DomainOutageStats",
    "RandomFaults",
    "FAULT_CRASH",
    "FAULT_RECOVER",
    "FAULT_SLOWDOWN",
    "FAULT_KINDS",
    "FAULT_CRASH_DOMAIN",
    "FAULT_RECOVER_DOMAIN",
    "DOMAIN_FAULT_KINDS",
    "SLOPolicy",
    "AdmissionController",
    "AdmissionDecision",
    "Autoscaler",
    "ScalingEvent",
    "ServingConfig",
    "DegradationPolicy",
    "QUALITY_FULL",
    "QUALITY_DEGRADED",
    "QUALITY_TIERS",
]
