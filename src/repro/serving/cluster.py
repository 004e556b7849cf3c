"""Sharded service cluster: fan batched requests out over service replicas.

A :class:`ShardedServiceCluster` replicates one template
:class:`~repro.system.service.GNNService` into ``num_shards`` independent
shards (each with its own preprocessing-system state — bitstream/LUT
configuration, reconfiguration history — via ``GNNService.replicas``) and
serves traffic through one event loop, written once and run on the backend
the cluster's ``engine`` names (:mod:`repro.serving.engine`):

* :meth:`ShardedServiceCluster.serve_online` — online co-simulation: an
  arrival *source* (:class:`~repro.serving.requests.TraceArrivals` or the
  closed-loop :class:`~repro.serving.requests.ClosedLoopClients`) is drained
  event by event, batches form incrementally under the same size-or-timeout
  policy, and the control plane (admission control, autoscaling — see
  :mod:`repro.serving.control`) hooks into every arrival.  Completion times
  are fed back to the source, which is what closes the loop for co-simulated
  client populations.
* :meth:`ShardedServiceCluster.serve_trace` — offline replay of a complete
  :class:`~repro.serving.requests.RequestTrace`: the same event loop fed by
  :class:`~repro.serving.requests.TraceArrivals` with no control plane, or,
  on the fast engine without faults or fair batching, an array-native
  chunked loop that batches the whole trace up front with the
  :class:`~repro.serving.scheduler.BatchScheduler` (byte-identical output).

The per-request sojourn time decomposes exactly as::

    sojourn = batching_delay + dispatch_delay + service_seconds

where *batching* is the wait for the batch to close, *dispatch* is the wait
for the chosen shard to drain its backlog, and *service* is the batch's
end-to-end service latency on that shard.  The merged
:class:`ClusterReport` aggregates throughput, latency percentiles, the
queueing-delay decomposition, per-shard utilisation and — for controlled
runs — the goodput / shed-rate accounting and the scaling timeline.
"""

from __future__ import annotations

import heapq
import zlib
from collections import deque
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.analysis.metrics import GoodputStats, LatencyStats, TenantStats

if TYPE_CHECKING:  # control.py only imports repro.system.workload — no cycle,
    # but the runtime layering (control/config on top of cluster) is kept
    # one-way.
    from repro.serving.config import ServingConfig
    from repro.serving.control import (
        AdmissionController,
        AdmissionDecision,
        Autoscaler,
        DegradationPolicy,
        ScalingEvent,
        SLOPolicy,
    )
from repro.serving.engine import BACKENDS, ENGINE_FAST, _serve_trace_chunked, check_engine
from repro.serving.faults import (
    DrainPlanner,
    FaultRuntime,
    FaultSchedule,
    FaultStats,
)
from repro.serving.requests import InferenceRequest, RequestTrace, TraceArrivals
from repro.serving.scheduler import BatchScheduler, RequestBatch
from repro.serving.topology import PLACEMENT_SPREAD, PLACEMENTS, ClusterTopology
from repro.system.service import GNNService, ServiceReport
from repro.system.workload import QUALITY_DEGRADED, WorkloadProfile

#: Dispatch policies: cycle shards, pick the earliest-free shard, or prefer
#: shards whose reconfigurable state already suits the batch (falling back to
#: a stable home shard by workload-key hash, and spilling to the earliest-free
#: shard when the preferred shard's backlog exceeds the spill threshold).
POLICY_ROUND_ROBIN = "round-robin"
POLICY_LEAST_LOADED = "least-loaded"
POLICY_LOCALITY = "locality"
DISPATCH_POLICIES = (POLICY_ROUND_ROBIN, POLICY_LEAST_LOADED, POLICY_LOCALITY)

@dataclass
class ServedRequest:
    """One request's journey through the cluster.

    Attributes:
        request: the original timestamped request.
        shard_id: the shard that served the request's batch.
        batch_size: number of requests sharing the batch.
        batching_delay: wait for the batch to close (seconds).
        dispatch_delay: wait for the shard to become free (seconds).
        service_seconds: end-to-end service latency of the batch.
        report: the batch's full :class:`ServiceReport` on the shard.
    """

    request: InferenceRequest
    shard_id: int
    batch_size: int
    batching_delay: float
    dispatch_delay: float
    service_seconds: float
    report: ServiceReport

    @property
    def sojourn_seconds(self) -> float:
        """Arrival-to-completion latency of the request."""
        return self.batching_delay + self.dispatch_delay + self.service_seconds

    @property
    def finish_seconds(self) -> float:
        """Simulated completion time of the request."""
        return self.request.arrival_seconds + self.sojourn_seconds


@dataclass
class ShedRecord:
    """One request the admission controller rejected at arrival.

    Attributes:
        request: the rejected request.
        shed_seconds: simulated time of the rejection (the arrival instant).
        predicted_sojourn: the sojourn prediction that caused the rejection.
        slo_seconds: the SLO the prediction was compared against.
    """

    request: InferenceRequest
    shed_seconds: float
    predicted_sojourn: float
    slo_seconds: float


@dataclass
class ReportAggregates:
    """Streaming-accumulated aggregates of one serving run.

    The fast backend folds every served request into these totals as it
    dispatches (see :class:`~repro.analysis.metrics.StreamingLatencyStats`),
    in the exact accumulation order the reference report properties use, so
    a :class:`ClusterReport` carrying aggregates renders byte-identically to
    one that re-derives them from the per-request records — and can drop
    those records entirely (:meth:`ClusterReport.compact`) at 100k-request
    scale.

    Attributes:
        count: requests served.
        shed_count: requests rejected at admission.
        latency: exact sojourn-time summary (push order = served order).
        batching_sum: total batching delay over served requests.
        dispatch_sum: total dispatch delay over served requests.
        service_sum: total service time over served requests.
        slo_met: served requests whose sojourn met their SLO (equals
            ``count`` when the run had no SLO).
        tenants: per-tenant accounting, keyed (and sorted) by tenant name.
        served_degraded: served requests executed at the degraded quality
            tier (their workload carries ``quality="degraded"``).
        slo_met_degraded: degraded-tier served requests that met their SLO
            (equals ``served_degraded`` when the run had no SLO).
    """

    count: int
    shed_count: int
    latency: LatencyStats
    batching_sum: float
    dispatch_sum: float
    service_sum: float
    slo_met: int
    tenants: Optional[Dict[str, TenantStats]] = None
    served_degraded: int = 0
    slo_met_degraded: int = 0


@dataclass
class ClusterReport:
    """Merged outcome of serving one trace on a sharded cluster.

    Attributes:
        system: preprocessing-system label of the shards.
        policy: dispatch policy the run used.
        num_shards: shard count.
        served: per-request serving records, in batch-dispatch order.
        num_batches: batches the scheduler formed.
        makespan_seconds: first arrival to last completion.
        shard_busy_seconds: per-shard total service time.
        shard_requests: per-shard served request counts.
        shed: requests rejected at admission (controlled runs only).
        slo: the SLO policy the run was scored against, or None.
        decisions: admission decisions in arrival order (controlled runs).
        scaling_timeline: autoscaler events of the run.
        aggregates: streaming-accumulated totals (fast backend only); when
            present the summary properties read them instead of re-deriving
            from the per-request records, and :meth:`compact` may drop the
            records.
        faults: fault-injection summary (:class:`FaultStats`) of runs served
            under a :class:`~repro.serving.faults.FaultSchedule`, or None.
            Plain summary data, so it survives :meth:`compact`.
        shard_seconds: provisioned shard-seconds measured by the autoscaled
            online loops' lease tracking (activation to post-backlog idle),
            or None for fixed-capacity runs — see
            :attr:`provisioned_shard_seconds`.
    """

    system: str
    policy: str
    num_shards: int
    served: List[ServedRequest]
    num_batches: int
    makespan_seconds: float
    shard_busy_seconds: List[float]
    shard_requests: List[int]
    shed: List[ShedRecord] = field(default_factory=list)
    slo: Optional["SLOPolicy"] = None
    decisions: List["AdmissionDecision"] = field(default_factory=list)
    scaling_timeline: List["ScalingEvent"] = field(default_factory=list)
    aggregates: Optional[ReportAggregates] = field(default=None, repr=False)
    faults: Optional[FaultStats] = None
    shard_seconds: Optional[float] = None

    # ------------------------------------------------------------ aggregates
    @property
    def num_requests(self) -> int:
        """Requests served."""
        if self.aggregates is not None:
            return self.aggregates.count
        return len(self.served)

    @property
    def num_shed(self) -> int:
        """Requests rejected at admission."""
        if self.aggregates is not None:
            return self.aggregates.shed_count
        return len(self.shed)

    def compact(self) -> "ClusterReport":
        """Drop the per-request records, keeping every summary aggregate.

        Only available on reports that carry :attr:`aggregates` (fast-engine
        runs).  ``as_dict`` and every summary property render identically
        afterwards; per-request accessors (``served``, ``shed``,
        ``decisions``, :meth:`service_reports`) come back empty.  At
        100k-request scale this is the difference between a report and a
        memory hog.  Returns ``self`` for chaining.
        """
        if self.aggregates is None:
            raise ValueError(
                "compact() requires streaming aggregates (fast-engine reports only)"
            )
        self.served = []
        self.shed = []
        self.decisions = []
        return self

    @property
    def num_failed(self) -> int:
        """Admitted requests permanently lost to shard faults."""
        if self.faults is not None:
            return self.faults.failed
        return 0

    @property
    def num_degraded(self) -> int:
        """Served requests executed at the degraded quality tier."""
        if self.aggregates is not None:
            return self.aggregates.served_degraded
        return sum(
            1 for s in self.served if s.request.workload.quality == QUALITY_DEGRADED
        )

    @property
    def num_offered(self) -> int:
        """Requests that reached the front-end (served + shed + failed)."""
        return self.num_requests + self.num_shed + self.num_failed

    @property
    def throughput_rps(self) -> float:
        """Completed requests per second of simulated makespan."""
        if self.makespan_seconds <= 0:
            return 0.0
        return self.num_requests / self.makespan_seconds

    @property
    def goodput(self) -> GoodputStats:
        """Offered/served/shed/SLO-met accounting of the run.

        Without an SLO every served request counts as good, so
        ``goodput_rps == throughput_rps``; with one, only served requests
        whose sojourn met their objective count.
        """
        if self.slo is None:
            slo_met = self.num_requests
            slo_met_degraded = self.num_degraded
        elif self.aggregates is not None:
            slo_met = self.aggregates.slo_met
            slo_met_degraded = self.aggregates.slo_met_degraded
        else:
            slo_met = sum(
                1
                for s in self.served
                if s.sojourn_seconds
                <= self.slo.slo_for(s.request.workload, s.request.tenant)
            )
            slo_met_degraded = sum(
                1
                for s in self.served
                if s.request.workload.quality == QUALITY_DEGRADED
                and s.sojourn_seconds
                <= self.slo.slo_for(s.request.workload, s.request.tenant)
            )
        return GoodputStats(
            offered=self.num_offered,
            served=self.num_requests,
            shed=self.num_shed,
            slo_met=slo_met,
            makespan_seconds=self.makespan_seconds,
            failed=self.num_failed,
            served_degraded=self.num_degraded,
            slo_met_degraded=slo_met_degraded,
        )

    @property
    def goodput_rps(self) -> float:
        """SLO-met served requests per second of makespan."""
        return self.goodput.goodput_rps

    @property
    def shed_rate(self) -> float:
        """Fraction of offered requests rejected at admission."""
        return self.goodput.shed_rate

    @property
    def slo_attainment(self) -> float:
        """Fraction of served requests that met their SLO."""
        return self.goodput.slo_attainment

    @property
    def latency(self) -> LatencyStats:
        """Distribution of per-request sojourn times."""
        if self.aggregates is not None:
            return self.aggregates.latency
        return LatencyStats.from_samples([s.sojourn_seconds for s in self.served])

    @property
    def queueing_decomposition(self) -> Dict[str, float]:
        """Mean per-request sojourn split into batching/dispatch/service."""
        n = max(self.num_requests, 1)
        if self.aggregates is not None:
            return {
                "batching": self.aggregates.batching_sum / n,
                "dispatch": self.aggregates.dispatch_sum / n,
                "service": self.aggregates.service_sum / n,
            }
        return {
            "batching": sum(s.batching_delay for s in self.served) / n,
            "dispatch": sum(s.dispatch_delay for s in self.served) / n,
            "service": sum(s.service_seconds for s in self.served) / n,
        }

    @property
    def tenant_stats(self) -> Dict[str, TenantStats]:
        """Per-tenant offered/served/shed/SLO accounting, sorted by tenant.

        Single-tenant runs report one ``"default"`` entry; the section is
        how fairness benchmarks and the property tests observe
        weighted-shedding and quota conservation per tenant.  Fast-engine
        reports read the streaming per-tenant aggregates (so the section
        survives :meth:`compact`); reference reports re-derive it from the
        per-request records — byte-identically, since both fold sojourns in
        served order.
        """
        if self.aggregates is not None and self.aggregates.tenants is not None:
            return self.aggregates.tenants
        sojourns: Dict[str, List[float]] = {}
        served_count: Dict[str, int] = {}
        slo_met: Dict[str, int] = {}
        shed_count: Dict[str, int] = {}
        degraded_count: Dict[str, int] = {}
        slo_met_degraded: Dict[str, int] = {}
        for s in self.served:
            tenant = s.request.tenant
            degraded = s.request.workload.quality == QUALITY_DEGRADED
            sojourns.setdefault(tenant, []).append(s.sojourn_seconds)
            served_count[tenant] = served_count.get(tenant, 0) + 1
            if degraded:
                degraded_count[tenant] = degraded_count.get(tenant, 0) + 1
            if self.slo is None or s.sojourn_seconds <= self.slo.slo_for(
                s.request.workload, tenant
            ):
                slo_met[tenant] = slo_met.get(tenant, 0) + 1
                if degraded:
                    slo_met_degraded[tenant] = slo_met_degraded.get(tenant, 0) + 1
        for record in self.shed:
            tenant = record.request.tenant
            shed_count[tenant] = shed_count.get(tenant, 0) + 1
        return {
            tenant: TenantStats(
                tenant=tenant,
                offered=served_count.get(tenant, 0) + shed_count.get(tenant, 0),
                served=served_count.get(tenant, 0),
                shed=shed_count.get(tenant, 0),
                slo_met=slo_met.get(tenant, 0),
                latency=LatencyStats.from_samples(sojourns.get(tenant, [])),
                served_degraded=degraded_count.get(tenant, 0),
                slo_met_degraded=slo_met_degraded.get(tenant, 0),
            )
            for tenant in sorted(set(served_count) | set(shed_count))
        }

    def tenant_weighted_goodput(
        self, degradation: "DegradationPolicy"
    ) -> Dict[str, float]:
        """Per-tenant SLO-weighted goodput (rps) under ``degradation``.

        Each tenant's degraded completions are valued at
        :meth:`DegradationPolicy.utility_for` of its quota — so a tenant
        whose :attr:`~repro.serving.control.TenantQuota.degraded_utility`
        floor exceeds the policy-wide knob is scored at its floor.  Runs
        without an SLO policy fall back to the policy-wide utility for every
        tenant.
        """
        makespan = self.makespan_seconds
        if makespan <= 0:
            return {tenant: 0.0 for tenant in self.tenant_stats}
        return {
            tenant: stats.slo_weighted_goodput(
                degradation.utility_for(
                    self.slo.quota_for(tenant) if self.slo is not None else None
                )
            )
            / makespan
            for tenant, stats in self.tenant_stats.items()
        }

    @property
    def provisioned_shard_seconds(self) -> float:
        """Shard-seconds of provisioned capacity the run consumed.

        Autoscaled online runs measure it as lease spans: a shard is paid
        from activation until it actually goes idle after a scale-down
        (drain-aware scaling lowers that horizon by migrating the backlog
        away).  Fixed-capacity runs pay every shard for the whole
        makespan.
        """
        if self.shard_seconds is not None:
            return self.shard_seconds
        return self.num_shards * self.makespan_seconds

    @property
    def shard_utilization(self) -> List[float]:
        """Per-shard fraction of the makespan spent serving batches."""
        if self.makespan_seconds <= 0:
            return [0.0 for _ in self.shard_busy_seconds]
        return [busy / self.makespan_seconds for busy in self.shard_busy_seconds]

    def service_reports(self) -> List[ServiceReport]:
        """Per-request service reports in request arrival order.

        With a 1-shard cluster and batch size 1 this list is element-wise
        equal to ``GNNService.serve_many`` on the same workloads (the
        identity contract the property tests enforce).
        """
        ordered = sorted(
            self.served,
            key=lambda s: (s.request.arrival_seconds, s.request.request_id),
        )
        return [s.report for s in ordered]

    def as_dict(self) -> Dict[str, object]:
        """JSON-serializable summary (per-request records elided).

        Fully deterministic for a deterministic run — the golden-report
        regression tests serialize this dictionary and assert byte-stable
        output across runs.
        """
        return {
            "system": self.system,
            "policy": self.policy,
            "num_shards": self.num_shards,
            "num_requests": self.num_requests,
            "num_batches": self.num_batches,
            "makespan_seconds": self.makespan_seconds,
            "throughput_rps": self.throughput_rps,
            "latency": self.latency.as_dict(),
            "queueing_decomposition": self.queueing_decomposition,
            "shard_utilization": self.shard_utilization,
            "shard_requests": list(self.shard_requests),
            "goodput": self.goodput.as_dict(),
            "tenants": {
                tenant: stats.as_dict()
                for tenant, stats in self.tenant_stats.items()
            },
            "slo": self.slo.as_dict() if self.slo is not None else None,
            "faults": self.faults.as_dict() if self.faults is not None else None,
            "shard_seconds": self.provisioned_shard_seconds,
            "scaling_timeline": [
                [
                    event.seconds,
                    event.active_shards,
                    event.reason,
                    event.migrated,
                    event.completed,
                ]
                for event in self.scaling_timeline
            ],
        }


#: Event kinds of the event loop, in their precedence order at timestamp ties.
_COMMIT, _FAULT, _DEADLINE, _RETRY, _ARRIVAL = range(5)


def _home_shard(batch: RequestBatch, num_candidates: int) -> int:
    """Stable home slot of a batch's workload key (process-independent)."""
    return zlib.crc32(repr(batch.key).encode("utf-8")) % num_candidates


def _admission_estimate(
    template: GNNService,
    request: InferenceRequest,
    admission: "AdmissionController",
    open_members: Optional[List[InferenceRequest]],
) -> float:
    """Service-time estimate the admission prediction charges ``request``.

    The conservative default prices the request as a standalone pass.  With
    ``admission.batch_aware`` and a compatible batch already forming, the
    request is priced at its *marginal* merged-batch cost — the merged
    pass with the request minus the pass already committed to — which is
    what the batch will actually add to the shard's busy horizon (batched
    preprocessing amortizes the fixed per-pass work).  Shared by both
    serving engines so their float arithmetic is identical.
    """
    estimate = template.estimate_service_seconds(request.workload)
    if admission.batch_aware and open_members:
        base = open_members[0].workload
        merged = sum(member.workload.batch_size for member in open_members)
        forming = template.estimate_service_seconds(base.with_batch_size(merged))
        joined = template.estimate_service_seconds(
            base.with_batch_size(merged + request.workload.batch_size)
        )
        estimate = min(estimate, max(joined - forming, 0.0))
    return estimate


def _resolve_config(config: Optional["ServingConfig"]) -> "ServingConfig":
    """The run's config (``None`` = all defaults)."""
    if config is not None:
        return config
    from repro.serving.config import ServingConfig

    return ServingConfig()


class ShardLeaseTracker:
    """Provisioned shard-seconds accounting for autoscaled online runs.

    A shard's lease opens when it (re)enters the autoscaler's active
    prefix and closes at a scale-down — at ``max(now, busy_until)``, when
    the shard actually goes idle after finishing what it still holds.
    With drain enabled the busy horizon has already dropped back to the
    in-flight floor by then, which is exactly how voluntary drains save
    shard-seconds: the leaving shard is not paid for backlog that migrated
    away.  Leases still open when the run ends close at the run's last
    finish.  Leases never overlap: a reactivation opens no earlier than
    the shard's previous close, so a backlog paid through a scale-down is
    not paid again after a scale-up.

    The online loop performs the open/close sequence in event order on
    either backend, so ``shard_seconds`` is byte-identical across them.
    """

    def __init__(self, num_shards: int) -> None:
        self._opened: List[Optional[float]] = [None] * num_shards
        self._closed_at = [0.0] * num_shards
        self.total = 0.0

    def open(self, shard_id: int, now: float) -> None:
        """Start the shard's lease at ``now`` (no-op when already open)."""
        if self._opened[shard_id] is None:
            self._opened[shard_id] = max(now, self._closed_at[shard_id])

    def close(self, shard_id: int, seconds: float) -> None:
        """End the shard's lease at ``seconds`` (clamped to its open)."""
        opened = self._opened[shard_id]
        if opened is None:
            return
        end = max(seconds, opened)
        self.total += end - opened
        self._closed_at[shard_id] = end
        self._opened[shard_id] = None

    def finish(self, end: float) -> float:
        """Close every open lease at the run's end; returns the total."""
        for shard_id, opened in enumerate(self._opened):
            if opened is not None:
                self.total += max(end, opened) - opened
                self._opened[shard_id] = None
        return self.total


class _Run:
    """State and placement step of one event-loop run, on either backend.

    Owns everything a committed batch updates — busy totals, per-shard
    request counts, the served records and the backend's streaming
    aggregates — and the active shard count the loop's autoscaler writes.
    The fault runtime and the drain planner drive the run directly, and
    every dispatch ends in :meth:`place`, so the commit that builds
    :class:`ServedRequest` records exists once.  ``on_commit``/``on_failed``
    are the loop's own effects of a committed batch and of a permanently
    failed request.
    """

    def __init__(
        self,
        cluster: "ShardedServiceCluster",
        backend: type,
        slo: Optional["SLOPolicy"],
        on_commit: Callable[[RequestBatch, float], None],
        on_failed: Callable[[InferenceRequest, float], None],
        planner: Optional[DrainPlanner],
        faults: Optional[FaultRuntime],
    ) -> None:
        self.cluster = cluster
        self.slo = slo
        self.backend = backend(cluster, slo)
        self.planner = planner
        self.faults = faults
        #: Shards the autoscaler keeps active (a prefix of the cluster's
        #: activation order); the loop writes it.
        self.active_count = cluster.num_shards
        #: The backend's authoritative busy-until list (written through
        #: :attr:`set_busy`).
        self.busy = self.backend.busy
        self.set_busy = self.backend.set_busy
        self.merged = self.backend.merged
        self.serve = self.backend.serve
        self.pick = self.backend.pick
        self.busy_total = [0.0] * cluster.num_shards
        self.shard_requests = [0] * cluster.num_shards
        self.served: List[ServedRequest] = []
        self.num_batches = 0
        self.last_finish = 0.0
        accumulator = self.backend.accumulator
        self._push = accumulator.push if accumulator is not None else None
        self.on_commit = on_commit
        self.on_failed = on_failed

    def pick_among(self, batch: RequestBatch, candidates: Sequence[int]) -> int:
        """The cluster's scan picker over a live subset (the fault runtime's
        candidates are not an index prefix)."""
        return self.cluster._pick_shard(batch, self.busy, candidates)

    def hold(self, shard_id: int, seconds: float) -> None:
        """Move a shard's horizon to ``seconds`` without placing work there.

        The fault runtime does this at recovery rejoins, standby warm-ups
        and in-flight kills.  Placed work never straddles a crash (a
        successful dispatch proved no crash lands before its finish), so
        these are the only horizons a drain must learn about: its floor
        rises with them.
        """
        self.set_busy(shard_id, seconds)
        if self.planner is not None:
            self.planner.raise_floor(shard_id, seconds)

    def dispatch(self, batch: RequestBatch) -> None:
        """Fault-free dispatch: pick an active shard, serve ``batch``, place it."""
        workload = self.merged(batch)
        shard_id = self.pick(batch, workload, self.active_count)
        start = max(batch.ready_seconds, self.busy[shard_id])
        report, duration = self.serve(shard_id, workload)
        self.place(batch, shard_id, start, duration, report, start + duration)

    def place(
        self,
        batch: RequestBatch,
        shard_id: int,
        start: float,
        duration: float,
        report: ServiceReport,
        finish: float,
    ) -> None:
        """Occupy ``shard_id`` until ``finish``, then plan or commit ``batch``.

        With a drain planner the commit waits for the batch's start (a
        scale-down may still migrate it); otherwise it lands now.
        """
        self.set_busy(shard_id, finish)
        if self.planner is not None:
            self.planner.plan(batch, shard_id, start, duration, report, finish)
        else:
            self.commit(batch, shard_id, start, duration, report, finish)

    def commit(
        self,
        batch: RequestBatch,
        shard_id: int,
        start: float,
        duration: float,
        report: ServiceReport,
        finish: float,
    ) -> None:
        """Record a batch whose service on ``shard_id`` is settled."""
        self.busy_total[shard_id] += duration
        members = batch.requests
        ready = batch.ready_seconds
        batch_size = len(members)
        self.shard_requests[shard_id] += batch_size
        self.num_batches += 1
        self.last_finish = max(self.last_finish, finish)
        dispatch_delay = start - ready
        served = self.served
        push = self._push
        for request in members:
            batching_delay = ready - request.arrival_seconds
            served.append(
                ServedRequest(
                    request=request,
                    shard_id=shard_id,
                    batch_size=batch_size,
                    batching_delay=batching_delay,
                    dispatch_delay=dispatch_delay,
                    service_seconds=duration,
                    report=report,
                )
            )
            if push is not None:
                push(request, batching_delay, dispatch_delay, duration)
        self.on_commit(batch, finish)
        if self.faults is not None:
            self.faults.note_commit(batch, start, duration, finish)

    def report(self, first_arrival: Optional[float], **sections) -> ClusterReport:
        """The run's :class:`ClusterReport` (``sections``: online/fault parts)."""
        cluster = self.cluster
        # A faulted replay can fail every request; an empty run has no span.
        makespan = 0.0
        if self.served and first_arrival is not None:
            makespan = self.last_finish - first_arrival
        accumulator = self.backend.accumulator
        aggregates = None
        if accumulator is not None:
            aggregates = accumulator.aggregates(
                count=len(self.served), shed_count=len(sections.get("shed", ()))
            )
        return ClusterReport(
            system=cluster.system_name,
            policy=cluster.policy,
            num_shards=cluster.num_shards,
            served=self.served,
            num_batches=self.num_batches,
            makespan_seconds=makespan,
            shard_busy_seconds=self.busy_total,
            shard_requests=self.shard_requests,
            slo=self.slo,
            aggregates=aggregates,
            **sections,
        )


class ShardedServiceCluster:
    """N replicated GNN services behind one queue and batch scheduler.

    Args:
        service: template service; each shard is an independent
            ``service.replicate()`` (own preprocessing-system state).
        num_shards: replica count (>= 1).
        scheduler: batching policy (defaults to per-request batches, i.e.
            ``BatchScheduler(max_batch_size=1)``).
        policy: dispatch policy, one of :data:`DISPATCH_POLICIES`.
        locality_spill_seconds: under the locality policy, a batch spills
            from its preferred shard to the earliest-free shard when the
            preferred backlog exceeds this many seconds (``inf`` pins
            strictly).
        rebalance_seconds: under the locality policy, enables stale-state
            rebalancing of the home-shard hash fallback: when the home
            shard served a *different* workload key within the last
            ``rebalance_seconds``, its reconfiguration state no longer
            matches this batch and dispatch re-homes to the earliest-free
            shard whose recent traffic does not conflict (unclaimed,
            same-key, or stale) instead of paying reconfiguration churn on
            every alternating batch.  ``None`` (default) disables
            rebalancing.
        engine: one of :data:`~repro.serving.engine.ENGINES`, the backend
            the event loop runs on (see :mod:`repro.serving.engine`) —
            ``"fast"`` (default) uses indexed heaps, serve-transition
            caching and the chunked offline loop; ``"reference"`` uses
            plain scans and direct serves.  Outputs are byte-identical;
            only wall-clock differs.
        topology: optional :class:`~repro.serving.topology.ClusterTopology`
            mapping shards to failure domains.  With one, placement becomes
            domain-aware: the autoscaler's active set follows the
            topology's activation order, locality dispatch hashes to a
            *domain* before a member shard, and fault-time standby
            substitution prefers shards in healthy domains.  ``None``
            (default) activates shards in index order.
        placement: activation-order policy over the topology —
            ``"spread"`` (default) round-robins activation across domains
            so any active prefix spans the maximum number of failure
            domains; ``"dense"`` fills domains in shard-index order (the
            domain-oblivious baseline).  Ignored without a topology.
    """

    def __init__(
        self,
        service: GNNService,
        num_shards: int = 1,
        scheduler: Optional[BatchScheduler] = None,
        policy: str = POLICY_LEAST_LOADED,
        locality_spill_seconds: float = float("inf"),
        rebalance_seconds: Optional[float] = None,
        engine: str = ENGINE_FAST,
        topology: Optional[ClusterTopology] = None,
        placement: str = PLACEMENT_SPREAD,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if policy not in DISPATCH_POLICIES:
            raise ValueError(
                f"unknown dispatch policy {policy!r}; expected one of {DISPATCH_POLICIES}"
            )
        if locality_spill_seconds < 0:
            raise ValueError("locality_spill_seconds must be non-negative")
        if rebalance_seconds is not None and rebalance_seconds < 0:
            raise ValueError("rebalance_seconds must be non-negative")
        check_engine(engine)
        self.template = service
        self.shards: List[GNNService] = service.replicas(num_shards)
        self.scheduler = scheduler or BatchScheduler(max_batch_size=1)
        self.policy = policy
        self.locality_spill_seconds = locality_spill_seconds
        self.rebalance_seconds = rebalance_seconds
        self.engine = engine
        if placement not in PLACEMENTS:
            raise ValueError(
                f"unknown placement {placement!r}; expected one of {PLACEMENTS}"
            )
        self.topology = topology
        self.placement = placement
        if topology is not None:
            topology.validate_for(num_shards)
            order = topology.activation_order(placement)
        else:
            order = tuple(range(num_shards))
        #: The order in which the autoscaler activates shards: an active set
        #: of ``n`` shards is ``_order[:n]``.
        self._order = order
        self._reset_dispatch_state()
        # Serve-transition cache shared by every fast-engine run on this
        # cluster: the shards are replicas of one template, so a transition
        # observed on one shard replays soundly on any other.  It keys on
        # ids interned for the cluster's lifetime, so a hit hashes two small
        # ints: (state id, workload id) -> (report, duration, end state id).
        self._serve_cache: Dict[Tuple[int, int], Tuple[ServiceReport, float, int]] = {}
        self._state_ids: Dict[Hashable, int] = {}
        #: Per state id, the snapshot a hit hands to ``apply_state``.
        self._snapshots: List[object] = []
        self._workload_ids: Dict[WorkloadProfile, int] = {}
        #: Per workload id, the merged workload.
        self._workloads: List[WorkloadProfile] = []

    def _state_id(self, shard: GNNService) -> int:
        """Interned id of ``shard``'s preprocessing state (its ``state_key()``)."""
        system = shard.preprocessing
        key = system.state_key()
        state_id = self._state_ids.get(key)
        if state_id is None:
            state_id = len(self._snapshots)
            self._state_ids[key] = state_id
            self._snapshots.append(system.snapshot_state())
        return state_id

    def _workload_id(self, workload: WorkloadProfile) -> int:
        """Interned id of a merged workload."""
        workload_id = self._workload_ids.get(workload)
        if workload_id is None:
            workload_id = len(self._workloads)
            self._workload_ids[workload] = workload_id
            self._workloads.append(workload)
        return workload_id

    def _reset_dispatch_state(self) -> None:
        """Reset per-run dispatch memory (round-robin cursor, shard keys).

        Both engines call this at the start of every run so dispatch
        history never leaks across runs on the same cluster.
        """
        self._rr_next = 0
        # Per shard: (workload key, ready time) of the last batch the
        # locality hash fallback dispatched there (stale-state rebalance).
        self._shard_key: List[Optional[tuple]] = [None] * self.num_shards

    @property
    def num_shards(self) -> int:
        """Number of service replicas."""
        return len(self.shards)

    @property
    def system_name(self) -> str:
        """Preprocessing-system label of the replicas."""
        return self.template.preprocessing.name

    # -------------------------------------------------------------- dispatch
    def _pick_shard(
        self,
        batch: RequestBatch,
        busy_until: List[float],
        active: Sequence[int],
    ) -> int:
        """Choose a shard for ``batch`` among the ``active`` shard ids.

        The locality policy is reconfiguration-state aware: shards whose
        preprocessing state already suits the batch's workload (no bitstream
        change would fire — see ``GNNService.configured_for``) are preferred,
        the earliest-free one winning.  Systems without reconfigurable state
        never claim a batch that way, so they fall back to a stable
        home-shard hash of the workload key.  Either preference spills to
        the earliest-free active shard once the preferred backlog exceeds
        ``locality_spill_seconds``.

        With ``rebalance_seconds`` set, the hash fallback additionally
        re-homes when the home shard's reconfiguration state has gone
        stale relative to the live traffic mix (see :meth:`_rebalance`).
        """
        least_loaded = min(active, key=lambda i: (busy_until[i], i))
        if self.policy == POLICY_ROUND_ROBIN:
            shard = active[self._rr_next % len(active)]
            self._rr_next += 1
            return shard
        if self.policy == POLICY_LOCALITY:
            configured = [
                i for i in active if self.shards[i].configured_for(batch.workload)
            ]
            if configured:
                preferred = min(configured, key=lambda i: (busy_until[i], i))
            else:
                if self.topology is not None:
                    preferred = self._domain_home(batch, active)
                else:
                    preferred = active[_home_shard(batch, len(active))]
                if self.rebalance_seconds is not None:
                    preferred = self._rebalance(batch, busy_until, active, preferred)
            backlog = busy_until[preferred] - batch.ready_seconds
            chosen = preferred if backlog <= self.locality_spill_seconds else least_loaded
            if self.rebalance_seconds is not None:
                self._shard_key[chosen] = (batch.key, batch.ready_seconds)
            return chosen
        return least_loaded

    def _domain_home(self, batch: RequestBatch, active: Sequence[int]) -> int:
        """Domain-spread home shard for the locality hash fallback.

        The workload key hashes to a *failure domain* first and to a member
        shard second, so the keys' home shards spread across domains instead
        of clustering wherever the flat hash lands — a rack outage then takes
        out a 1/num_domains slice of the key space rather than an arbitrary
        one.  Domains with no currently-active member are probed past in
        declaration order (their keys spill to the next domain over).
        """
        digest = zlib.crc32(repr(batch.key).encode("utf-8"))
        names = self.topology.domain_names
        start = digest % len(names)
        for offset in range(len(names)):
            name = names[(start + offset) % len(names)]
            members = [i for i in active if self.topology.domain_of(i) == name]
            if members:
                return members[(digest // len(names)) % len(members)]
        return active[_home_shard(batch, len(active))]

    def _rebalance(
        self,
        batch: RequestBatch,
        busy_until: List[float],
        active: Sequence[int],
        home: int,
    ) -> int:
        """Stale-state re-homing for the locality hash fallback.

        The home shard keeps the batch unless it *recently* (within
        ``rebalance_seconds`` of this batch's ready time) dispatched a
        batch with a *different* workload key — its reconfiguration state
        is then warm for conflicting traffic, and pinning this batch there
        pays reconfiguration churn on every alternation.  In that case the
        batch re-homes to the earliest-free active shard whose recent
        traffic does not conflict: unclaimed, same-key, or stale.  When
        every active shard conflicts the home shard keeps the batch (no
        rebalance target is better than any other).
        """

        def conflicts(shard_id: int) -> bool:
            entry = self._shard_key[shard_id]
            return (
                entry is not None
                and entry[0] != batch.key
                and batch.ready_seconds - entry[1] <= self.rebalance_seconds
            )

        if not conflicts(home):
            return home
        candidates = [i for i in active if not conflicts(i)]
        if not candidates:
            return home
        return min(candidates, key=lambda i: (busy_until[i], i))

    # --------------------------------------------------------------- serving
    def serve_trace(
        self,
        trace: RequestTrace,
        *,
        config: Optional["ServingConfig"] = None,
    ) -> ClusterReport:
        """Replay a trace through the cluster and merge the outcome.

        Event-driven and fully simulated: batches close under the
        scheduler's size-or-timeout policy and are dispatched in the order
        they close; a batch starts at ``max(ready, shard free)`` and
        occupies its shard for the batch's modelled end-to-end latency.

        ``config`` (a :class:`~repro.serving.config.ServingConfig`) carries
        the run's options.  Its ``slo`` only scores the run's goodput
        section; the offline path never sheds.  With a ``faults`` schedule
        the replay injects shard crash/recover/slowdown events: doomed
        batches migrate to survivors, in-flight failures retry with
        backoff, and the report carries a faults section.  Admission
        control, degradation and autoscaling are online-only and rejected
        here.

        A fast-engine replay with no faults and no fair batching runs the
        array-native chunked loop; every other replay is the online event
        loop over ``TraceArrivals(trace)``, so a trace has one fault
        semantics offline and online.
        """
        config = _resolve_config(config)
        if config.autoscaler is not None:
            raise ValueError("serve_trace is offline: autoscaler requires serve_online")
        if config.resolved_controller() is not None:
            raise ValueError(
                "serve_trace is offline and never sheds: admission control "
                "(controller/admit/degradation) requires serve_online"
            )
        if not len(trace):
            raise ValueError("cannot serve an empty trace")
        slo = config.scoring_slo()
        faults = config.resolved_faults()
        if self.engine == ENGINE_FAST and faults is None and not self.scheduler.fair:
            return _serve_trace_chunked(self, trace, slo)
        return self._serve_online_events(TraceArrivals(trace), slo, None, None, faults)

    def serve_online(
        self,
        source,
        *,
        config: Optional["ServingConfig"] = None,
    ) -> ClusterReport:
        """Drain an arrival source through the online co-simulated event loop.

        ``source`` implements the arrival-source protocol (``peek_time`` /
        ``pop`` / ``on_complete`` / ``on_shed``):
        :class:`~repro.serving.requests.TraceArrivals` replays a fixed trace,
        :class:`~repro.serving.requests.ClosedLoopClients` co-simulates a
        client population fed by this loop's actual finish times.
        ``config`` (a :class:`~repro.serving.config.ServingConfig`) carries
        the whole control plane.

        The loop interleaves two event kinds in simulated-time order —
        arrivals and batch-timeout deadlines (ties fire the deadline first,
        matching the offline scheduler) — and batches close under the same
        size-or-timeout policy as :class:`BatchScheduler`.  At every arrival
        the control plane hooks run in order:

        1. ``autoscaler.observe`` sees the queue depth — the arriving
           request, requests in open batches, requests in flight, and
           recently shed arrivals (shed demand within the autoscaler's
           ``shed_memory_seconds`` still signals overload) — and may
           activate a shard, which is then warm-up-penalised (bitstream
           load) before it can start a batch, or drain one (it finishes its
           backlog but receives nothing new).
        2. ``admission.decide`` predicts the request's sojourn from the
           least-loaded active shard's backlog plus the calibrated cost
           estimate and sheds the request if the prediction violates its
           SLO; sheds are reported back to the source immediately.  With a
           :class:`~repro.serving.control.DegradationPolicy` configured,
           the admission chain gains a degraded-quality tier: a request
           whose full-quality prediction violates its SLO is re-priced at
           its cheaper degraded profile (own batch key, own batches) and
           served degraded when that prediction fits — shed only when even
           the degraded tier cannot meet the SLO and no excess budget
           covers it.

        Completion times are committed at batch dispatch (the simulation is
        deterministic, so the finish instant is known then) and fed to the
        source, which is what lets closed-loop clients issue their next
        request only after their previous one actually finished.

        With a ``faults`` schedule the loop interleaves two more event
        kinds — fault events and retry timers — with the precedence
        ``fault < deadline < retry < arrival`` at timestamp ties.  Dispatch
        then goes through the shared fault runtime: dead shards leave the
        dispatchable set (live standby shards past the autoscaler's prefix
        replace them), doomed batches drain and migrate, in-flight failures
        retry with exponential backoff until their budget is spent, and the
        admission backlog prediction only counts live shards.
        """
        config = _resolve_config(config)
        autoscaler = config.autoscaler
        if autoscaler is not None and autoscaler.max_shards > self.num_shards:
            raise ValueError(
                f"autoscaler max_shards ({autoscaler.max_shards}) exceeds the "
                f"cluster's shard count ({self.num_shards})"
            )
        return self._serve_online_events(
            source,
            config.scoring_slo(),
            config.resolved_controller(),
            autoscaler,
            config.resolved_faults(),
        )

    def _serve_online_events(
        self,
        source,
        slo: Optional["SLOPolicy"],
        admission: Optional["AdmissionController"],
        autoscaler: Optional["Autoscaler"],
        faults: Optional[FaultSchedule],
    ) -> ClusterReport:
        """The event loop of online runs and non-chunked offline replays,
        on the backend :attr:`engine` names."""
        self._reset_dispatch_state()
        scheduler = self.scheduler
        fair = scheduler.fair
        batcher = scheduler.fair_batcher() if fair else None
        open_members: Dict[object, List[InferenceRequest]] = {}
        open_deadline: Dict[object, float] = {}
        # Requests in open batches (the autoscaler's queue depth reads it).
        open_count = 0
        # Finish times of committed requests; only the autoscaler reads it.
        inflight: List[float] = []
        shed_records: List[ShedRecord] = []
        decisions: List[object] = []
        # Estimated cost of requests admitted but not yet dispatched, so a
        # same-instant arrival burst cannot all be admitted against the same
        # (still-empty) shard backlog.
        pending_estimates: Dict[int, float] = {}
        # Arrival times of recent sheds: demand the autoscaler must still see.
        recent_sheds: deque = deque()
        if admission is not None:
            admission.reset()
        first_arrival: Optional[float] = None
        # Guaranteed-tier tenants whose open-queue pressure a tenant-aware
        # autoscaler watches separately from the global depth.
        guaranteed_tenants: Optional[frozenset] = None
        if autoscaler is not None and autoscaler.tenant_aware and slo is not None:
            guaranteed_tenants = frozenset(
                tenant
                for tenant, quota in slo.per_tenant.items()
                if quota.guaranteed_rps > 0
            )
        guaranteed_open = 0
        # Warm-up a shard pays each time it is activated: a scale-up join,
        # or a standby starting to substitute for a crashed shard.
        warmup = (
            tuple(
                autoscaler.warmup_seconds
                if autoscaler.warmup_seconds is not None
                else shard.warmup_seconds
                for shard in self.shards
            )
            if autoscaler is not None
            else None
        )
        order = self._order
        ctx = (
            faults.runtime(
                self.num_shards,
                slo,
                order=order,
                topology=self.topology,
                warmup=warmup,
            )
            if faults is not None
            else None
        )
        planner = (
            DrainPlanner(self.num_shards)
            if autoscaler is not None and autoscaler.drain
            else None
        )

        def dispatch_batch(batch: RequestBatch) -> None:
            nonlocal guaranteed_open
            if guaranteed_tenants:
                for request in batch.requests:
                    if request.tenant in guaranteed_tenants:
                        guaranteed_open -= 1
            submit(batch)

        def close_batch(key: object, ready_seconds: float) -> None:
            nonlocal open_count
            members = open_members.pop(key)
            open_deadline.pop(key)
            open_count -= len(members)
            dispatch_batch(RequestBatch(requests=members, ready_seconds=ready_seconds))

        def commit_online(batch: RequestBatch, finish: float) -> None:
            for request in batch.requests:
                if admission is not None:
                    pending_estimates.pop(request.request_id, None)
                if autoscaler is not None:
                    heapq.heappush(inflight, finish)
                source.on_complete(request, finish)

        def fail_request(request: InferenceRequest, seconds: float) -> None:
            pending_estimates.pop(request.request_id, None)
            source.on_shed(request, seconds)

        run = _Run(
            self, BACKENDS[self.engine], slo, commit_online, fail_request, planner, ctx
        )
        backend = run.backend
        busy = run.busy
        accumulator = backend.accumulator
        if ctx is None:
            submit = run.dispatch
        else:

            def submit(batch: RequestBatch) -> None:
                ctx.submit(batch, run)

        leases: Optional[ShardLeaseTracker] = None
        if autoscaler is not None:
            first_peek = source.peek_time()
            start_seconds = first_peek if first_peek is not None else 0.0
            run.active_count = autoscaler.start(start_seconds)
            leases = ShardLeaseTracker(self.num_shards)
            for shard_id in order[: run.active_count]:
                leases.open(shard_id, start_seconds)
        if planner is not None:

            def on_planned(batch: RequestBatch) -> None:
                # Admitted estimates clear at plan time, not commit time:
                # the planned work is already priced into the busy horizon
                # the admission backlog reads.
                for request in batch.requests:
                    pending_estimates.pop(request.request_id, None)

            planner.on_planned = on_planned

        def enqueue(request: InferenceRequest, now: float, key: object) -> None:
            """Add ``request`` (batch key ``key``) to its forming batch."""
            nonlocal guaranteed_open, open_count
            if guaranteed_tenants and request.tenant in guaranteed_tenants:
                guaranteed_open += 1
            if fair:
                for batch in batcher.add(request, now):
                    dispatch_batch(batch)
                return
            members = open_members.get(key)
            if members is None:
                members = []
                open_members[key] = members
                deadline = now + scheduler.max_wait_seconds
                open_deadline[key] = deadline
                backend.opened(key, deadline, request.request_id)
            members.append(request)
            open_count += 1
            if len(members) >= scheduler.max_batch_size:
                close_batch(key, now)

        while True:
            # Pick the earliest event in one pass.  At timestamp ties the
            # precedence is commit < fault < deadline < retry < arrival:
            # sources are ranked from last to first and a higher-ranked
            # source takes over on ``<=``.  Commits fire first so work whose
            # service has begun is in flight — and immovable — before any
            # same-instant scale decision or fault consults the plan.
            t_next = source.peek_time()
            event = _ARRIVAL
            if ctx is not None:
                t_retry = ctx.next_retry_time()
                if t_retry is not None and (t_next is None or t_retry <= t_next):
                    t_next, event = t_retry, _RETRY
            if fair:
                expiring = batcher.peek_deadline()
            else:
                expiring = backend.next_deadline(open_members, open_deadline)
            if expiring is not None and (t_next is None or expiring[0] <= t_next):
                t_next, event = expiring[0], _DEADLINE
            if ctx is not None:
                t_fault = ctx.next_fault_time()
                if t_fault is not None and (t_next is None or t_fault <= t_next):
                    t_next, event = t_fault, _FAULT
            if planner is not None:
                t_commit = planner.next_commit_time()
                if t_commit is not None and (t_next is None or t_commit <= t_next):
                    t_next, event = t_commit, _COMMIT
            if event != _ARRIVAL:
                if event == _DEADLINE:
                    if fair:
                        for batch in batcher.fire_deadline(expiring):
                            dispatch_batch(batch)
                    else:
                        backend.fired()
                        close_batch(expiring[1], expiring[0])
                elif event == _COMMIT:
                    planner.commit_next(run)
                elif event == _FAULT:
                    ctx.advance(run, t_next)
                else:
                    retry_request, retry_now = ctx.pop_retry()
                    enqueue(retry_request, retry_now, retry_request.workload.batch_key)
                continue
            if t_next is None:
                break
            request = source.pop()
            now = request.arrival_seconds
            key = request.workload.batch_key
            if first_arrival is None:
                first_arrival = now
            if autoscaler is not None:
                while inflight and inflight[0] <= now:
                    heapq.heappop(inflight)
                while recent_sheds and recent_sheds[0] < now - autoscaler.shed_memory_seconds:
                    recent_sheds.popleft()
                pending = batcher.pending_count if fair else open_count
                # The arriving request itself counts toward the depth.
                queue_depth = 1 + len(inflight) + pending + len(recent_sheds)
                if ctx is not None:
                    # Work the fault layer is holding (retries, parked
                    # batches) is still demand the autoscaler must see.
                    queue_depth += ctx.backlog_count()
                if planner is not None:
                    # Planned-but-uncommitted dispatches are queued work
                    # too; commit-at-dispatch counted them via inflight.
                    queue_depth += planner.planned
                previous = run.active_count
                if guaranteed_tenants is not None:
                    guaranteed_depth = guaranteed_open + (
                        1 if request.tenant in guaranteed_tenants else 0
                    )
                    active_count = autoscaler.observe(
                        now, queue_depth, guaranteed_depth=guaranteed_depth
                    )
                else:
                    active_count = autoscaler.observe(now, queue_depth)
                run.active_count = active_count
                for shard_id in order[previous:active_count]:
                    backend.set_busy(
                        shard_id, max(busy[shard_id], now + warmup[shard_id])
                    )
                    leases.open(shard_id, now)
                if ctx is not None and active_count > previous:
                    ctx.flush(run, now)
                if active_count < previous:
                    if planner is not None:
                        if ctx is not None:
                            # Leaving = dispatchable before minus dispatchable
                            # after, so standby substitution under faults is
                            # honoured (a dead prefix shard drains nothing).
                            surviving = set(ctx.active_alive(active_count))
                            leaving = [
                                shard_id
                                for shard_id in ctx.active_alive(previous)
                                if shard_id not in surviving
                            ]
                        else:
                            leaving = order[active_count:previous]
                        drained, completed = planner.drain(leaving, now, run)
                        migrated = 0
                        for stranded in drained:
                            migrated += len(stranded.requests)
                            submit(
                                RequestBatch(requests=stranded.requests, ready_seconds=now)
                            )
                        autoscaler.record_drain(migrated, completed)
                    # Leases close after the drain so a drained shard is
                    # billed to its lowered (post-migration) horizon.
                    for shard_id in order[active_count:previous]:
                        leases.close(shard_id, max(now, busy[shard_id]))
            if admission is not None:
                # Backlog of the least-loaded active shard plus the admitted
                # but undispatched work, spread across the active shards —
                # the queue depth times the calibrated per-batch cost.  The
                # pending sum is re-reduced, not maintained incrementally,
                # so its float accumulation order never depends on history.
                if ctx is not None:
                    # Only live shards can absorb work; with none, the
                    # prediction is unbounded and only guaranteed-tier
                    # traffic gets through (to queue until recovery).
                    alive = ctx.active_alive(run.active_count)
                    if alive:
                        backlog = min(
                            max(busy[i] - now, 0.0) for i in alive
                        ) + sum(pending_estimates.values()) / len(alive)
                    else:
                        backlog = float("inf")
                else:
                    backlog = backend.min_backlog(run.active_count, now) + sum(
                        pending_estimates.values()
                    ) / run.active_count
                if fair:
                    # A request the fair batcher would spill pays a full
                    # standalone pass, not the marginal increment of a
                    # batch it will not join.
                    joinable = (
                        batcher.open_members(key)
                        if batcher.can_join(key, request.tenant)
                        else None
                    )
                else:
                    joinable = open_members.get(key)
                estimate = _admission_estimate(
                    self.template, request, admission, joinable
                )
                # Degraded-quality tier: price the request's cheaper profile
                # against *its own* open batch (degraded requests batch under
                # their own key) so the controller can admit it degraded when
                # the full-quality prediction violates the SLO.
                degraded_workload = admission.degraded_profile(
                    request.workload, request.tenant
                )
                degraded_estimate = None
                degraded_request = None
                if degraded_workload is not None:
                    degraded_key = degraded_workload.batch_key
                    if fair:
                        degraded_joinable = (
                            batcher.open_members(degraded_key)
                            if batcher.can_join(degraded_key, request.tenant)
                            else None
                        )
                    else:
                        degraded_joinable = open_members.get(degraded_key)
                    degraded_request = replace(request, workload=degraded_workload)
                    degraded_estimate = _admission_estimate(
                        self.template, degraded_request, admission, degraded_joinable
                    )
                decision = admission.decide(
                    request, now, backlog, estimate, degraded_estimate
                )
                if admission.record_decisions:
                    decisions.append(decision)
                if not decision.admitted:
                    shed_records.append(
                        ShedRecord(
                            request=request,
                            shed_seconds=now,
                            predicted_sojourn=decision.predicted_sojourn,
                            slo_seconds=decision.slo_seconds,
                        )
                    )
                    if accumulator is not None:
                        accumulator.push_shed(request)
                    recent_sheds.append(now)
                    source.on_shed(request, now)
                    continue
                if decision.degraded:
                    request = degraded_request
                    key = degraded_key
                    estimate = degraded_estimate
                pending_estimates[request.request_id] = estimate
            enqueue(request, now, key)

        return run.report(
            first_arrival,
            shed=shed_records,
            decisions=decisions,
            scaling_timeline=list(autoscaler.timeline()) if autoscaler is not None else [],
            faults=(
                ctx.finalize(first_arrival, run.last_finish) if ctx is not None else None
            ),
            shard_seconds=(
                leases.finish(run.last_finish) if leases is not None else None
            ),
        )
