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
from array import array
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.metrics import GoodputStats, LatencyStats, TenantStats

if TYPE_CHECKING:  # control.py only imports repro.system.workload — no cycle,
    # but the runtime layering (control/config on top of cluster) is kept
    # one-way.
    from repro.serving.config import ServingConfig
    from repro.serving.control import (
        AdmissionDecision,
        DegradationPolicy,
        ScalingEvent,
        SLOPolicy,
    )
from repro.serving.engine import (
    BACKENDS,
    ENGINE_FAST,
    _ChunkedServedLog,
    _report_aggregates,
    _serve_trace_chunked,
    _slot_pool,
    check_engine,
)
from repro.serving.faults import DrainPlanner, FaultStats
from repro.serving.requests import InferenceRequest, RequestTrace, TraceArrivals
from repro.serving.scheduler import BatchScheduler, RequestBatch
from repro.serving.topology import ClusterTopology
from repro.system.service import GNNService, ServiceReport
from repro.system.workload import QUALITY_DEGRADED, WorkloadProfile

#: Dispatch policies: pick the earliest-free shard, or prefer shards whose
#: reconfigurable state already suits the batch (falling back to a stable
#: home shard by workload-key hash, and spilling to the earliest-free shard
#: when the preferred shard's backlog exceeds the spill threshold).  Either
#: pick is a pure function of the batch, the busy horizons and the
#: candidate shards.
POLICY_LEAST_LOADED = "least-loaded"
POLICY_LOCALITY = "locality"
DISPATCH_POLICIES = (POLICY_LEAST_LOADED, POLICY_LOCALITY)

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
    """Precomputed aggregates of one fast-engine serving run.

    The fast engine's loops commit at batch granularity and fold every
    served request into these totals once, when the run reports
    (``_report_aggregates`` in :mod:`repro.serving.engine`), in the exact
    accumulation order the reference report properties use, so a
    :class:`ClusterReport` carrying aggregates renders byte-identically to
    one that re-derives them from the per-request records — and can drop
    those records entirely (:meth:`ClusterReport.compact`) at 100k-request
    scale.

    Attributes:
        count: requests served.
        shed_count: requests rejected at admission.
        latency: exact sojourn-time summary (mean summed in served order).
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
    tenants: Dict[str, TenantStats]
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
        aggregates: precomputed totals (fast backend only); when
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
        if self.aggregates is not None:
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

#: How long a *shed* arrival keeps counting as demand pressure in the
#: autoscaler's queue-depth signal.  Without it, heavy shedding hides
#: overload from the autoscaler entirely (rejected requests never enter the
#: queue), and the cluster can wedge at ``min_shards`` while shedding nearly
#: everything.
SHED_MEMORY_SECONDS = 1.0


def _home_shard(batch: RequestBatch, num_candidates: int) -> int:
    """Stable home slot of a batch's workload key (process-independent)."""
    return zlib.crc32(repr(batch.key).encode("utf-8")) % num_candidates


def _admission_estimate(
    price_resized: Callable[[WorkloadProfile, int], float],
    standalone: float,
    batch_size: int,
    open_members: List[InferenceRequest],
) -> float:
    """Batch-aware estimate of a request of ``batch_size`` seed nodes that
    would join ``open_members``' forming batch.

    The conservative default prices a request as a standalone pass
    (``standalone``).  With ``ServingConfig.batch_aware`` and a compatible batch
    already forming, the request is priced at its *marginal* merged-batch
    cost when that is lower — the merged pass with the request minus the
    pass already committed to — which is what the batch will actually add
    to the shard's busy horizon (batched preprocessing amortizes the fixed
    per-pass work).  ``price_resized`` is the backend's estimate of a base
    profile resized to a merged size; both backends share this arithmetic
    so their floats are identical.
    """
    base = open_members[0].workload
    merged = sum(member.workload.batch_size for member in open_members)
    forming = price_resized(base, merged)
    joined = price_resized(base, merged + batch_size)
    return min(standalone, max(joined - forming, 0.0))


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
    """One event-loop run on either backend: its state and its steps.

    ``serve_trace`` and ``serve_online`` build one per call and call
    :meth:`run`, which drains the arrival source and returns the report.
    The run holds everything the loop touches: the forming batches and
    their deadlines, the control plane's bookkeeping (in-flight heap,
    admitted estimates, recent sheds, leases, shed records and
    decisions), the active shard count the autoscaler writes,
    and the accounting a committed batch updates (busy totals, per-shard
    request counts, the served log).

    The steps are methods: :meth:`enqueue` adds a request to its forming
    batch, :meth:`close` closes one, :meth:`submit` dispatches it (through
    the fault runtime when the run has one), :meth:`joinable` finds the batch an arrival would join,
    :meth:`scale` applies the autoscaler's verdict at an arrival and
    :meth:`admit` admits, degrades or sheds it.  The fault runtime and the
    drain planner drive the run directly, and every dispatch ends in
    :attr:`place`, so the commit exists once.  Admitted estimates clear in
    :meth:`plan_or_commit` and :meth:`on_failed` and nowhere else.
    """

    # Slots keep attribute reads on the per-event path fast: an instance
    # dict this wide no longer shares its keys.
    __slots__ = (
        "cluster", "source", "slo", "admission", "autoscaler", "backend", "warmup",
        "faults", "planner", "busy", "set_busy", "place", "merged", "serve", "pick",
        "least_loaded", "admission_row", "price_resized", "min_backlog",
        "busy_total", "shard_requests", "num_batches", "last_finish", "served",
        "members", "ready", "starts", "durations", "shard_ids", "counts", "reports",
        "max_batch_size", "max_wait_seconds", "batcher", "open_members",
        "open_deadline", "expiring", "open_count", "inflight", "inflight_count",
        "pending_estimates", "recent_sheds", "shed", "decisions",
        "notifies_source", "replays_source", "first_arrival", "active_count", "leases",
        "record_decisions", "batch_aware",
    )

    def __init__(
        self, cluster: "ShardedServiceCluster", source, config: "ServingConfig"
    ) -> None:
        self.cluster = cluster
        self.source = source
        self.slo = slo = config.slo
        self.admission = config.resolved_controller()
        self.record_decisions = config.record_decisions
        self.batch_aware = config.batch_aware
        self.autoscaler = autoscaler = config.autoscaler
        self.backend = backend = BACKENDS[cluster.engine](cluster)
        num_shards = cluster.num_shards
        # Warm-up a shard pays each time it is activated: a scale-up join,
        # or a standby starting to substitute for a crashed shard.
        self.warmup = (
            tuple(
                autoscaler.warmup_seconds
                if autoscaler.warmup_seconds is not None
                else shard.warmup_seconds
                for shard in cluster.shards
            )
            if autoscaler is not None
            else None
        )
        faults = config.faults
        self.faults = (
            faults.runtime(
                num_shards,
                slo,
                order=cluster._order,
                topology=cluster.topology,
                warmup=self.warmup,
            )
            if faults is not None
            else None
        )
        self.planner = (
            DrainPlanner(num_shards)
            if autoscaler is not None and autoscaler.drain
            else None
        )
        #: The backend's authoritative busy-until list (written through
        #: :attr:`set_busy`).  Under faults every pick reads the list (the
        #: fault runtime walks its live set), so nothing reads the fast
        #: backend's shard heap and writes skip it.
        self.busy = backend.busy
        self.set_busy = backend.busy.__setitem__ if self.faults is not None else backend.set_busy
        #: Where every successful dispatch ends, once the caller has moved
        #: the shard's horizon to the batch's finish: :meth:`plan_or_commit`,
        #: or :meth:`commit` itself when the run has neither a drain planner
        #: (nothing defers) nor admission (no estimate is ever pending).
        self.place = (
            self.commit
            if self.planner is None and self.admission is None
            else self.plan_or_commit
        )
        self.merged = backend.merged
        self.serve = backend.serve
        self.pick = backend.pick
        self.least_loaded = backend.least_loaded
        self.admission_row = backend.admission_row
        self.price_resized = backend.price_resized
        self.min_backlog = backend.min_backlog
        self.busy_total = [0.0] * num_shards
        self.shard_requests = [0] * num_shards
        self.num_batches = 0
        self.last_finish = 0.0
        #: Served records, built per request on the reference backend only
        #: (the oracle).  The fast backend commits whole batches into flat
        #: columns instead — members, then per batch its ready time, start,
        #: duration, shard, member count and report — which
        #: :meth:`report` folds once.
        self.served: Optional[List[ServedRequest]] = (
            None if backend.batch_columns else []
        )
        if self.served is None:
            self.members: List[InferenceRequest] = []
            self.ready = array("d")
            self.starts = array("d")
            self.durations = array("d")
            self.shard_ids = array("q")
            self.counts = array("q")
            self.reports: List[ServiceReport] = []
        scheduler = cluster.scheduler
        self.max_batch_size = scheduler.max_batch_size
        self.max_wait_seconds = scheduler.max_wait_seconds
        self.batcher = scheduler.fair_batcher() if scheduler.fair else None
        self.open_members: Dict[object, List[InferenceRequest]] = {}
        self.open_deadline: Dict[object, float] = {}
        #: ``(deadline, key)`` of the open batch due next, or None; kept by
        #: :meth:`enqueue` and :meth:`close` (fair runs ask their batcher).
        self.expiring: Optional[Tuple[float, object]] = None
        #: Requests in open batches (the autoscaler's queue depth reads it).
        self.open_count = 0
        #: ``(finish, member count)`` per committed batch, a heap, and the
        #: members still in flight; only the autoscaler reads them.
        self.inflight: List[Tuple[float, int]] = []
        self.inflight_count = 0
        #: Estimated cost of requests admitted but not yet placed, so a
        #: same-instant arrival burst cannot all be admitted against the
        #: same (still-empty) shard backlog.
        self.pending_estimates: Dict[int, float] = {}
        #: Arrival times of recent sheds: demand the autoscaler must still see.
        self.recent_sheds: deque = deque()
        self.shed: List[ShedRecord] = []
        self.decisions: List[object] = []
        # ``TraceArrivals`` ignores completions, so offline replays skip the
        # per-request walk; a source that overrides ``on_complete`` is told.
        self.notifies_source = (
            getattr(source.on_complete, "__func__", None) is not TraceArrivals.on_complete
        )
        #: Whether only ``pop`` moves the source's next arrival (it ignores
        #: sheds too), so the loop need peek only after a pop.
        self.replays_source = not self.notifies_source and (
            getattr(source.on_shed, "__func__", None) is TraceArrivals.on_shed
        )
        #: The makespan's origin (None for an empty source).
        self.first_arrival: Optional[float] = source.peek_time()
        #: Shards the autoscaler keeps active (a prefix of the cluster's
        #: activation order); :meth:`scale` writes it.
        self.active_count = num_shards
        self.leases: Optional[ShardLeaseTracker] = None
        if autoscaler is not None:
            start = self.first_arrival if self.first_arrival is not None else 0.0
            self.active_count = autoscaler.start(start)
            self.leases = ShardLeaseTracker(num_shards)
            for shard_id in cluster._order[: self.active_count]:
                self.leases.open(shard_id, start)

    def run(self) -> ClusterReport:
        """Fire events in simulated-time order until the source is drained.

        Each pass picks the earliest event.  At timestamp ties the
        precedence is commit < fault < deadline < retry < arrival: sources
        are ranked from last to first and a higher-ranked source takes over
        on ``<=``.  Commits fire first so work whose service has begun is in
        flight — and immovable — before any same-instant scale decision or
        fault consults the plan; faults apply before anything dispatches at
        their instant; a deadline closes its batch before a same-instant
        retry or arrival could join it (the offline scheduler's order); and
        retries re-enter ahead of new arrivals.  The pick stays inline: as a
        method it costs 3-5% of the serving workloads' throughput.
        """
        source = self.source
        faults = self.faults
        planner = self.planner
        batcher = self.batcher
        enqueue = self.enqueue
        scale = self.scale if self.autoscaler is not None else None
        admit = self.admit if self.admission is not None else None
        retries = faults.retries if faults is not None else None
        replays = self.replays_source
        t_arrival = self.first_arrival
        while True:
            t_next = t_arrival if replays else source.peek_time()
            event = _ARRIVAL
            if retries:
                t_retry = retries[0][0]
                if t_next is None or t_retry <= t_next:
                    t_next, event = t_retry, _RETRY
            if batcher is not None:
                expiring = batcher.peek_deadline()
            else:
                expiring = self.expiring
            if expiring is not None and (t_next is None or expiring[0] <= t_next):
                t_next, event = expiring[0], _DEADLINE
            if faults is not None:
                t_fault = faults.next_fault
                if t_fault is not None and (t_next is None or t_fault <= t_next):
                    t_next, event = t_fault, _FAULT
            if planner is not None:
                t_commit = planner.next_commit_time()
                if t_commit is not None and (t_next is None or t_commit <= t_next):
                    t_next, event = t_commit, _COMMIT
            if event == _ARRIVAL:
                if t_next is None:
                    return self.report()
                request = source.pop()
                if replays:
                    t_arrival = source.peek_time()
                now = request.arrival_seconds
                if scale is not None:
                    scale(now)
                if admit is None:
                    enqueue(request, now, request.workload.batch_key)
                else:
                    admit(request, now)
            elif event == _DEADLINE:
                if batcher is not None:
                    for batch in batcher.fire_deadline(expiring):
                        self.submit(batch)
                else:
                    self.close(expiring[1], expiring[0])
            elif event == _COMMIT:
                planner.commit_next(self)
            elif event == _FAULT:
                faults.advance(self, t_next)
            else:
                request, now = faults.pop_retry()
                enqueue(request, now, request.workload.batch_key)

    # -------------------------------------------------------------- batching
    def enqueue(self, request: InferenceRequest, now: float, key: object) -> None:
        """Add ``request`` (batch key ``key``) to its forming batch.

        ``now`` is the event time, which never decreases, so a batch opening
        now is due next only into an empty set or at a tie it wins on id."""
        if self.batcher is not None:
            for batch in self.batcher.add(request, now):
                self.submit(batch)
            return
        members = self.open_members.get(key)
        if members is None:
            members = self.open_members[key] = []
            deadline = now + self.max_wait_seconds
            self.open_deadline[key] = deadline
            self.backend.opened(key, deadline, request.request_id)
            head = self.expiring
            if head is None or deadline == head[0] and (
                request.request_id < self.open_members[head[1]][0].request_id
            ):
                self.expiring = (deadline, key)
        members.append(request)
        self.open_count += 1
        if len(members) >= self.max_batch_size:
            self.close(key, now)

    def close(self, key: object, ready_seconds: float) -> None:
        """Close the forming batch under ``key``, ready at ``ready_seconds``."""
        members = self.open_members.pop(key)
        del self.open_deadline[key]
        if key == self.expiring[1]:
            self.expiring = self.backend.next_deadline(self.open_members, self.open_deadline)
        self.open_count -= len(members)
        self.submit(RequestBatch(requests=members, ready_seconds=ready_seconds))

    def joinable(self, key: object, tenant: str) -> Optional[List[InferenceRequest]]:
        """Members of the forming batch an arrival under ``key`` would join,
        or None: the marginal price's base (``batch_aware``)."""
        batcher = self.batcher
        if batcher is None:
            return self.open_members.get(key)
        # A request the fair batcher would spill pays a full standalone
        # pass, not the marginal increment of a batch it will not join.
        # Asked with or without ``batch_aware``: ``can_join`` seeds the
        # tenant's deficit credit.
        return batcher.open_members(key) if batcher.can_join(key, tenant) else None

    # --------------------------------------------------------- control plane
    def scale(self, now: float) -> None:
        """Show the autoscaler the queue depth at an arrival; apply its verdict.

        The depth counts the arriving request, requests in open batches and
        in flight, recently shed arrivals (shed demand within
        :data:`SHED_MEMORY_SECONDS` still signals overload), work the fault
        layer holds and planned-but-uncommitted dispatches.  A joining shard
        warms up before it can start a batch, and parked batches wake.  A scale-down drains the leaving shards when the run
        has a planner, then closes their leases.
        """
        autoscaler = self.autoscaler
        inflight = self.inflight
        while inflight and inflight[0][0] <= now:
            self.inflight_count -= heapq.heappop(inflight)[1]
        recent_sheds = self.recent_sheds
        while recent_sheds and recent_sheds[0] < now - SHED_MEMORY_SECONDS:
            recent_sheds.popleft()
        pending = self.batcher.pending_count if self.batcher is not None else self.open_count
        queue_depth = 1 + self.inflight_count + pending + len(recent_sheds)
        faults = self.faults
        if faults is not None:
            queue_depth += faults.backlog_count()
        planner = self.planner
        if planner is not None:
            queue_depth += planner.planned
        previous = self.active_count
        active_count = autoscaler.observe(now, queue_depth)
        if active_count == previous:
            return
        self.active_count = active_count
        order = self.cluster._order
        busy = self.busy
        leases = self.leases
        for shard_id in order[previous:active_count]:
            self.set_busy(shard_id, max(busy[shard_id], now + self.warmup[shard_id]))
            leases.open(shard_id, now)
        if active_count > previous:
            if faults is not None:
                faults.flush(self, now)
            return
        if planner is not None:
            if faults is not None:
                # Leaving = dispatchable before minus dispatchable after, so
                # standby substitution under faults is honoured (a dead
                # prefix shard drains nothing).
                surviving = set(faults.active_alive(active_count))
                leaving = [
                    shard_id
                    for shard_id in faults.active_alive(previous)
                    if shard_id not in surviving
                ]
            else:
                leaving = order[active_count:previous]
            drained, completed = planner.drain(leaving, now, self)
            migrated = 0
            for stranded in drained:
                migrated += len(stranded.requests)
                self.submit(RequestBatch(requests=stranded.requests, ready_seconds=now))
            autoscaler.record_drain(migrated, completed)
        # Leases close after the drain so a drained shard is billed to its
        # lowered (post-migration) horizon.
        for shard_id in order[active_count:previous]:
            leases.close(shard_id, max(now, busy[shard_id]))

    def admit(self, request: InferenceRequest, now: float) -> None:
        """Admit, degrade or shed an arrival on its predicted sojourn.

        The backlog is the least-loaded active shard's plus the admitted but
        unplaced work spread across the active shards.  The pending sum is
        re-reduced, not maintained incrementally, so its float accumulation
        order never depends on history.  Under faults only live shards can
        absorb work; with none the prediction is unbounded and only
        guaranteed-tier traffic gets through (to queue until recovery).
        """
        admission = self.admission
        pending = self.pending_estimates
        if self.faults is not None:
            alive = self.faults.active_alive(self.active_count)
            if alive:
                backlog = min(max(self.busy[i] - now, 0.0) for i in alive) + sum(
                    pending.values()
                ) / len(alive)
            else:
                backlog = float("inf")
        else:
            backlog = self.min_backlog(self.active_count, now) + sum(
                pending.values()
            ) / self.active_count
        # The request's batch key and standalone price, and its cheaper
        # degraded-quality tier (own batch key, own batches) that the
        # controller may admit when the full-quality prediction violates
        # the SLO.
        key, estimate, degraded_workload, degraded_key, degraded_estimate = (
            self.admission_row(request, admission)
        )
        batch_aware = self.batch_aware
        if batch_aware or self.batcher is not None:
            joinable = self.joinable(key, request.tenant)
            if batch_aware and joinable:
                estimate = _admission_estimate(
                    self.price_resized, estimate, request.workload.batch_size, joinable
                )
            if degraded_workload is not None:
                # Degraded requests price against *their own* open batch.
                joinable = self.joinable(degraded_key, request.tenant)
                if batch_aware and joinable:
                    degraded_estimate = _admission_estimate(
                        self.price_resized,
                        degraded_estimate,
                        degraded_workload.batch_size,
                        joinable,
                    )
        admitted, degraded, predicted, slo = admission.decide(
            request, now, backlog, estimate, degraded_estimate,
            self.decisions if self.record_decisions else None,
        )
        if not admitted:
            self.shed.append(ShedRecord(request, now, predicted, slo))
            self.recent_sheds.append(now)
            self.source.on_shed(request, now)
            return
        if degraded:
            request = InferenceRequest(
                request.request_id, request.arrival_seconds, degraded_workload,
                request.tenant,
            )
            key = degraded_key
            estimate = degraded_estimate
        pending[request.request_id] = estimate
        self.enqueue(request, now, key)

    # -------------------------------------------------------------- dispatch
    def submit(self, batch: RequestBatch) -> None:
        """Dispatch a closed or migrated batch, through the fault runtime
        when the run has one."""
        if self.faults is None:
            self.dispatch(batch)
        else:
            self.faults.submit(batch, self)

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
        finish = start + duration
        self.set_busy(shard_id, finish)
        self.place(batch, shard_id, start, duration, report, finish)

    def plan_or_commit(
        self,
        batch: RequestBatch,
        shard_id: int,
        start: float,
        duration: float,
        report: ServiceReport,
        finish: float,
    ) -> None:
        """Plan or commit ``batch``, which already occupies ``shard_id``
        until ``finish`` (the run's :attr:`place` when something may
        intervene).

        The members' admitted estimates clear here: from now on the busy
        horizon the admission backlog reads prices their work.  With a
        drain planner the commit waits for the batch's start (a scale-down
        may still migrate it); otherwise it lands now.
        """
        pending = self.pending_estimates
        if pending:
            for request in batch.requests:
                pending.pop(request.request_id, None)
        if self.planner is not None:
            self.planner.plan(batch, shard_id, start, duration, report, finish)
        else:
            self.commit(batch, shard_id, start, duration, report, finish)

    def on_failed(self, request: InferenceRequest, seconds: float) -> None:
        """A request the fault runtime gave up on: its estimate clears and
        the source sees it shed."""
        self.pending_estimates.pop(request.request_id, None)
        self.source.on_shed(request, seconds)

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
        if finish > self.last_finish:
            self.last_finish = finish
        served = self.served
        if served is None:
            self.members.extend(members)
            self.ready.append(ready)
            self.starts.append(start)
            self.durations.append(duration)
            self.shard_ids.append(shard_id)
            self.counts.append(batch_size)
            self.reports.append(report)
        else:
            dispatch_delay = start - ready
            for request in members:
                served.append(
                    ServedRequest(
                        request=request,
                        shard_id=shard_id,
                        batch_size=batch_size,
                        batching_delay=ready - request.arrival_seconds,
                        dispatch_delay=dispatch_delay,
                        service_seconds=duration,
                        report=report,
                    )
                )
            # The fast backend counts degraded-window completions once, at
            # report time, over its batch columns (:meth:`_fold`).
            if self.faults is not None:
                self.faults.note_commit(batch, start, duration, finish)
        if self.autoscaler is not None:
            heapq.heappush(self.inflight, (finish, batch_size))
            self.inflight_count += batch_size
        if self.notifies_source:
            for request in members:
                self.source.on_complete(request, finish)

    # ---------------------------------------------------------------- report
    def report(self) -> ClusterReport:
        """The run's :class:`ClusterReport`."""
        cluster = self.cluster
        served = self.served
        aggregates = None
        if served is None:
            served, aggregates = self._fold(self.shed)
        # A faulted replay can fail every request; an empty run has no span.
        first_arrival = self.first_arrival
        makespan = 0.0
        if served and first_arrival is not None:
            makespan = self.last_finish - first_arrival
        return ClusterReport(
            system=cluster.system_name,
            policy=cluster.policy,
            num_shards=cluster.num_shards,
            served=served,
            num_batches=self.num_batches,
            makespan_seconds=makespan,
            shard_busy_seconds=self.busy_total,
            shard_requests=self.shard_requests,
            shed=self.shed,
            slo=self.slo,
            decisions=self.decisions,
            scaling_timeline=(
                list(self.autoscaler.timeline()) if self.autoscaler is not None else []
            ),
            aggregates=aggregates,
            faults=(
                self.faults.finalize(first_arrival, self.last_finish)
                if self.faults is not None
                else None
            ),
            shard_seconds=(
                self.leases.finish(self.last_finish) if self.leases is not None else None
            ),
        )

    def _fold(self, shed: Sequence[ShedRecord]) -> Tuple[_ChunkedServedLog, ReportAggregates]:
        """The fast backend's lazy served log and aggregates, folded once
        from the batch columns by the chunked loop's accounting; under
        faults the degraded-window completions are counted from the same
        columns."""
        members = self.members
        count = len(members)
        counts = np.array(self.counts, dtype=np.int64)
        ready = np.array(self.ready, dtype=np.float64)
        starts = np.array(self.starts, dtype=np.float64)
        durations = np.array(self.durations, dtype=np.float64)
        workload_pool, workload_slots = _slot_pool(list(map(attrgetter("workload"), members)))
        tenant_pool, tenant_slots = _slot_pool(list(map(attrgetter("tenant"), members)))
        aggregates, met = _report_aggregates(
            self.slo,
            ready,
            starts,
            durations,
            counts,
            np.fromiter(map(attrgetter("arrival_seconds"), members), np.float64, count),
            workload_slots,
            workload_pool,
            tenant_slots,
            tenant_pool,
            shed,
        )
        if self.faults is not None:
            self.faults.note_batches(starts + durations, counts, met)
        served = _ChunkedServedLog(
            lambda: members,
            count,
            counts,
            ready,
            np.array(self.shard_ids, dtype=np.int64),
            starts,
            durations,
            self.reports,
        )
        return served, aggregates


class ShardedServiceCluster:
    """N replicated GNN services behind one queue and batch scheduler.

    Args:
        service: template service; the shards are its
            ``service.replicas(num_shards)`` (each with its own
            preprocessing-system state).
        num_shards: replica count (>= 1).
        scheduler: batching policy (defaults to per-request batches, i.e.
            ``BatchScheduler(max_batch_size=1)``).
        policy: dispatch policy, one of :data:`DISPATCH_POLICIES`.
        locality_spill_seconds: under the locality policy, a batch spills
            from its preferred shard to the earliest-free shard when the
            preferred backlog exceeds this many seconds (``inf`` pins
            strictly).
        engine: one of :data:`~repro.serving.engine.ENGINES`, the backend
            the event loop runs on (see :mod:`repro.serving.engine`) —
            ``"fast"`` (default) uses indexed heaps, serve-transition
            caching and the chunked offline loop; ``"reference"`` uses
            plain scans and direct serves.  Outputs are byte-identical;
            only wall-clock differs.
        topology: optional :class:`~repro.serving.topology.ClusterTopology`
            mapping shards to failure domains.  With one, placement becomes
            domain-aware: the autoscaler's active set follows the
            topology's activation order, which spreads any active prefix
            across as many failure domains as it can, locality dispatch
            hashes to a *domain* before a member shard, and fault-time
            standby substitution prefers shards in healthy domains.
            ``None`` (default) activates shards in index order.
    """

    def __init__(
        self,
        service: GNNService,
        num_shards: int = 1,
        scheduler: Optional[BatchScheduler] = None,
        policy: str = POLICY_LEAST_LOADED,
        locality_spill_seconds: float = float("inf"),
        engine: str = ENGINE_FAST,
        topology: Optional[ClusterTopology] = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if policy not in DISPATCH_POLICIES:
            raise ValueError(
                f"unknown dispatch policy {policy!r}; expected one of {DISPATCH_POLICIES}"
            )
        if not locality_spill_seconds >= 0:
            raise ValueError(
                "locality_spill_seconds must be a number >= 0 (inf: never "
                f"spill), got {locality_spill_seconds}"
            )
        check_engine(engine)
        self.template = service
        self.shards: List[GNNService] = service.replicas(num_shards)
        self.scheduler = scheduler or BatchScheduler(max_batch_size=1)
        self.policy = policy
        self.locality_spill_seconds = locality_spill_seconds
        self.engine = engine
        self.topology = topology
        if topology is not None:
            topology.validate_for(num_shards)
            order = topology.activation_order()
        else:
            order = tuple(range(num_shards))
        #: The order in which the autoscaler activates shards: an active set
        #: of ``n`` shards is ``_order[:n]``.
        self._order = order
        # Serve-transition cache shared by every fast-engine run on this
        # cluster: the shards are replicas of one template, so a transition
        # observed on one shard replays soundly on any other.  It keys on
        # ids interned for the cluster's lifetime, so a hit hashes two small
        # ints: (state id, workload id) -> (report, duration, end state id).
        self._serve_cache: Dict[Tuple[int, int], Tuple[ServiceReport, float, int]] = {}
        self._state_ids: Dict[Hashable, int] = {}
        #: Per state id, the ``state_key()`` a hit hands to ``apply_state``.
        self._states: List[Hashable] = []
        self._workload_ids: Dict[WorkloadProfile, int] = {}
        #: Per workload id, the merged workload.
        self._workloads: List[WorkloadProfile] = []

    def _state_id(self, shard: GNNService) -> int:
        """Interned id of ``shard``'s preprocessing state (its ``state_key()``)."""
        key = shard.preprocessing.state_key()
        state_id = self._state_ids.get(key)
        if state_id is None:
            state_id = len(self._states)
            self._state_ids[key] = state_id
            self._states.append(key)
        return state_id

    def _workload_id(self, workload: WorkloadProfile) -> int:
        """Interned id of a merged workload."""
        workload_id = self._workload_ids.get(workload)
        if workload_id is None:
            workload_id = len(self._workloads)
            self._workload_ids[workload] = workload_id
            self._workloads.append(workload)
        return workload_id

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

        The pick is a pure function of the batch, the busy horizons, the
        candidates and the shards' states: it changes nothing, so a caller
        may re-pick freely.
        """
        if self.policy == POLICY_LOCALITY:
            workload = batch.workload
            configured = [i for i in active if self.shards[i].configured_for(workload)]
            if configured:
                preferred = min(configured, key=lambda i: (busy_until[i], i))
            elif self.topology is not None:
                preferred = self._domain_home(batch, active)
            else:
                preferred = active[_home_shard(batch, len(active))]
            if busy_until[preferred] - batch.ready_seconds <= self.locality_spill_seconds:
                return preferred
        return min(active, key=lambda i: (busy_until[i], i))

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

        A fast-engine least-loaded replay with no faults and no fair
        batching runs the array-native chunked loop; every other replay is
        the online event loop over ``TraceArrivals(trace)``, so a trace has
        one fault semantics offline and online.
        """
        config = _resolve_config(config)
        if config.autoscaler is not None:
            raise ValueError("serve_trace is offline: autoscaler requires serve_online")
        if config.resolved_controller() is not None:
            raise ValueError(
                "serve_trace is offline and never sheds: admission control "
                "(admit/degradation) requires serve_online"
            )
        if not len(trace):
            raise ValueError("cannot serve an empty trace")
        if (
            self.engine == ENGINE_FAST
            and self.policy == POLICY_LEAST_LOADED
            and config.faults is None
            and not self.scheduler.fair
        ):
            return _serve_trace_chunked(self, trace, config.slo)
        return _Run(self, TraceArrivals(trace), config).run()

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
           recently shed arrivals (shed demand within
           :data:`SHED_MEMORY_SECONDS` still signals overload) — and may
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
        request only after their previous one actually finished.  A
        draining autoscaler (``drain=True``, the default) defers each
        commit to its batch's start instead, as one more event kind.

        With a ``faults`` schedule the loop interleaves two more event
        kinds — fault events and retry timers.  At timestamp ties the
        precedence of all five kinds is ``commit < fault < deadline <
        retry < arrival`` (see ``_Run.run``).  Dispatch
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
        return _Run(self, source, config).run()
