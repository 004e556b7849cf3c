"""Serving backends: the data structures behind the cluster's event loop.

:class:`~repro.serving.cluster.ShardedServiceCluster` runs one event loop,
online and for offline replays alike.  The ``engine`` option only picks the
*backend* that loop runs on, from :data:`BACKENDS`:

* :class:`ReferenceBackend` (``"reference"``) — plain linear scans, a direct
  ``GNNService.serve`` per batch, and no precomputed aggregates: the run
  keeps one ``ServedRequest`` per request and the report re-derives every
  summary from them, which keeps it an independent oracle for the fast
  backend's accounting.
* :class:`FastBackend` (``"fast"``, the default) — the same loop on indexed
  structures and memoization:

  * **Serve-transition cache** — a batch's :class:`ServiceReport` is a pure
    function of ``(preprocessing state, merged workload)``; the backend
    caches the ``(state, workload) -> (report, duration, next state)``
    transition and replays it on any shard in the same starting state
    (``PreprocessingSystem.state_key`` / ``apply_state``).  Every shard
    is a ``replicate`` of one template, whose only per-shard mutable state
    is what ``state_key`` returns, so equal keys mean equal passes.  States
    and merged workloads are interned to small ints for the cluster's
    lifetime and each run tracks every shard's state id, so a hit is an
    int-tuple lookup.  For DynPre this eliminates
    the per-batch bitstream-library sweep; for stateless systems it
    eliminates the analytic model evaluation outright.
  * **Indexed shard heap** — least-loaded dispatch and admission backlog
    reads pop a ``(busy_until, shard_id)`` priority structure
    (:class:`ShardHeap`) with lazy staleness instead of scanning every
    shard per batch; the autoscaler's drains and scale-downs are why an
    entry can go stale.  A faulted run never reads it (the fault runtime
    picks from its live set over the busy list), so that run writes its
    horizons to the list alone and the heap keeps its one entry per shard.
  * **Deadline heap** — the event loop's next-expiring-batch query is a
    heap top instead of a scan over all open batches.
  * **Per-run price tables** — admission prices each distinct thing once
    per run: standalone estimates keyed on interned workload ids, merged
    (``batch_aware``) estimates on ``(base workload id, merged size)``,
    and each ``(profile, tenant)`` pair's batch key, estimate and degraded
    tier in one row.  The template is never served during a run, so its
    estimates are run constants; the tables die with the run.
  * **Batch-granular commit, one report-time fold** — a commit appends one
    record per batch to flat columns (members, ready, start, duration,
    shard, member count, report); no per-request object is built.  When
    the run reports, :func:`_report_aggregates` — the chunked
    loop's vectorized accounting — folds the columns into the aggregates
    once (same accumulation order as the reference report properties,
    hence bit-identical), and ``report.served`` is a lazy
    :class:`_ChunkedServedLog` over the columns, so a report can
    :meth:`~repro.serving.cluster.ClusterReport.compact` away its
    per-request records at 100k-request scale without ever building them.

Fast-engine least-loaded offline replays with no faults and no fair
batching skip the event loop altogether for the array-native chunked loop
(:func:`_serve_trace_chunked`): its batch plan comes from the trace's
structure-of-arrays view (``BatchScheduler.schedule_arrays``) in one pass,
and, with every shard always active, its least-loaded pick is a plain heap
of one entry per shard, re-timed in place after each serve.

Every piece a backend swaps returns the value the reference piece would, so
both backends — and the chunked loop — render byte-identical reports
(golden- and property-test enforced); the control flow and every float
expression that lands in a report live once, in the event loop.
"""

from __future__ import annotations

import heapq
from array import array
from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.metrics import LatencyStats, left_fold_sum
from repro.serving.requests import InferenceRequest
from repro.serving.scheduler import RequestBatch
from repro.system.workload import QUALITY_DEGRADED, WorkloadProfile

if TYPE_CHECKING:
    from repro.serving.cluster import ShardedServiceCluster, ShedRecord
    from repro.serving.control import AdmissionController, SLOPolicy
    from repro.system.service import ServiceReport

class ShardHeap:
    """Keyed priority structure over shard busy horizons.

    ``busy`` is the authoritative per-shard busy-until list (shared with the
    report's utilisation accounting); the heap holds ``(busy_until, shard)``
    entries with lazy invalidation — an entry is stale when it no longer
    matches ``busy``.  Staleness is a *value* comparison, not a
    monotonicity assumption: horizons normally only grow, but a voluntary
    drain lowers a leaving shard's horizon back to its in-flight floor,
    which simply revalidates (or duplicates) an earlier entry — every
    shard always has one entry matching its current value, so :meth:`pick`
    stays correct.  :meth:`pick` returns the shard the reference picker's
    ``min(active, key=lambda i: (busy_until[i], i))`` would return: the heap
    order ``(busy, shard_id)`` is exactly that tie-break.

    Entries for shards outside the active prefix (autoscaler drained or
    scaled down mid-run) are momentarily set aside during a pick and
    reinserted, so a pick can never land on a deactivated shard and a
    later scale-up still sees its horizon.
    """

    __slots__ = ("busy", "_heap")

    def __init__(self, num_shards: int) -> None:
        self.busy = [0.0] * num_shards
        self._heap: List[Tuple[float, int]] = [(0.0, i) for i in range(num_shards)]

    def update(self, shard_id: int, busy_until: float) -> None:
        """Raise one shard's busy horizon."""
        self.busy[shard_id] = busy_until
        heapq.heappush(self._heap, (busy_until, shard_id))

    def pick(self, active_count: int) -> int:
        """Earliest-free shard among the active prefix ``[0, active_count)``."""
        heap = self._heap
        deferred: List[Tuple[float, int]] = []
        while True:
            busy_until, shard_id = heap[0]
            if busy_until != self.busy[shard_id]:
                heapq.heappop(heap)
                continue
            if shard_id >= active_count:
                deferred.append(heapq.heappop(heap))
                continue
            break
        for entry in deferred:
            heapq.heappush(heap, entry)
        return shard_id

    def min_busy(self, active_count: int) -> float:
        """Smallest busy horizon among the active prefix."""
        return self.busy[self.pick(active_count)]


def _report_aggregates(
    slo: Optional["SLOPolicy"],
    ready_seconds: np.ndarray,
    starts: np.ndarray,
    durations: np.ndarray,
    counts: np.ndarray,
    arrivals: np.ndarray,
    workload_slots: np.ndarray,
    workload_pool: Sequence[WorkloadProfile],
    tenant_slots: np.ndarray,
    tenant_pool: Sequence[str],
    shed: Sequence["ShedRecord"] = (),
):
    """Fold one fast-engine run's served requests into its aggregates, once.

    Both the chunked offline loop and the fast event loop report through
    this one vectorized pass.  The first four arrays are per committed
    batch, in commit order (``counts`` holds each batch's member count);
    the next three are per served request, in served order (batch commit
    order, members in batch order), with each request's workload and
    tenant given as a slot into its pool (tenant names distinct).
    ``shed`` holds the run's admission sheds.  Every float is the event
    loop's scalar expression applied elementwise — the per-batch
    ``start - ready`` broadcast hands every member the identical double —
    and every sum folds left-to-right from zero
    (:func:`~repro.analysis.metrics.left_fold_sum`,
    :meth:`LatencyStats.from_array`), per tenant too, so the resulting
    :class:`~repro.serving.cluster.ReportAggregates` are bit-identical to
    re-deriving the values from the per-request records.  Returns them with
    the per-request SLO verdicts (all true without an SLO), in served order.
    """
    from repro.analysis.metrics import TenantStats
    from repro.serving.cluster import ReportAggregates

    batch_of = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    batching = ready_seconds[batch_of] - arrivals
    dispatch = (starts - ready_seconds)[batch_of]
    service = durations[batch_of]
    sojourn = batching + dispatch + service
    degraded_of_slot = np.asarray(
        [workload.quality == QUALITY_DEGRADED for workload in workload_pool],
        dtype=bool,
    )
    degraded = degraded_of_slot[workload_slots]
    if slo is not None:
        # ``slo_for`` depends only on the workload's name and the tenant,
        # so one threshold per (workload slot, tenant slot) pair covers
        # every request.
        thresholds = np.empty((len(workload_pool), len(tenant_pool)), dtype=np.float64)
        for slot, workload in enumerate(workload_pool):
            for tenant_slot, tenant in enumerate(tenant_pool):
                thresholds[slot, tenant_slot] = slo.slo_for(workload, tenant)
        met = sojourn <= thresholds[workload_slots, tenant_slots]
    else:
        # Without an SLO every served request counts as met.
        met = np.ones(len(sojourn), dtype=bool)

    tenant_shed: Dict[str, int] = {}
    for record in shed:
        tenant = record.request.tenant
        tenant_shed[tenant] = tenant_shed.get(tenant, 0) + 1
    tenants = {}
    slot_of = {tenant: slot for slot, tenant in enumerate(tenant_pool)}
    for tenant in sorted(set(tenant_pool) | set(tenant_shed)):
        mask = tenant_slots == slot_of.get(tenant, -1)
        served = int(np.count_nonzero(mask))
        shed_count = tenant_shed.get(tenant, 0)
        if served == 0 and shed_count == 0:
            # A pool entry no request references (merge dedupe keeps
            # it) — the reference report never sees the tenant.
            continue
        # Boolean masking preserves served order, so the per-tenant fold
        # carries the same rounding trail as the reference per-tenant sum.
        latency = LatencyStats.from_array(sojourn[mask])
        tenant_met = met[mask]
        tenant_degraded = degraded[mask]
        tenants[tenant] = TenantStats(
            tenant=tenant,
            offered=served + shed_count,
            served=served,
            shed=shed_count,
            slo_met=int(np.count_nonzero(tenant_met)),
            latency=latency,
            served_degraded=int(np.count_nonzero(tenant_degraded)),
            slo_met_degraded=int(np.count_nonzero(tenant_met & tenant_degraded)),
        )
    return ReportAggregates(
        count=len(sojourn),
        shed_count=len(shed),
        latency=LatencyStats.from_array(sojourn),
        batching_sum=left_fold_sum(batching),
        dispatch_sum=left_fold_sum(dispatch),
        service_sum=left_fold_sum(service),
        slo_met=int(np.count_nonzero(met)),
        tenants=tenants,
        served_degraded=int(np.count_nonzero(degraded)),
        slo_met_degraded=int(np.count_nonzero(met & degraded)),
    ), met


def _slot_pool(values: Sequence) -> Tuple[list, np.ndarray]:
    """``(pool, slots)`` with ``pool[slots[i]] == values[i]``.

    Equal values share a slot.  The values are grouped by object identity
    first (one sort over the ids), so only the few distinct objects are
    hashed: a run's requests share a handful of workload profiles and
    tenant names.
    """
    ids = np.fromiter(map(id, values), dtype=np.uintp, count=len(values))
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    slot_of: Dict[object, int] = {}
    remap = [slot_of.setdefault(values[i], len(slot_of)) for i in first.tolist()]
    return list(slot_of), np.asarray(remap, dtype=np.int64)[inverse.reshape(-1)]


def _cached_serve(
    cluster: "ShardedServiceCluster", states: List[int], shard_id: int, workload_id: int
) -> Tuple["ServiceReport", float]:
    """Serve workload ``workload_id`` on shard ``shard_id`` through the
    serve-transition cache.

    ``states`` holds each shard's interned state id for the current run and
    is moved to the transition's end state.  A hit replays the memoized
    ``(report, duration, end state)`` transition: the report object is
    shared (it is immutable in practice and compares by value).  When the
    end state differs from the shard's tracked state, ``apply_state`` moves
    the shard to the exact state a fresh pass would have left — including
    the reconfiguration event log, which the controller re-derives from the
    (old, new) configuration pair.  When it is the same state id the shard
    already holds an equal state, and ``apply_state`` would be a no-op, so
    it is not called.
    """
    state = states[shard_id]
    key = (state, workload_id)
    hit = cluster._serve_cache.get(key)
    if hit is not None:
        report, duration, end_state = hit
        if end_state != state:
            cluster.shards[shard_id].preprocessing.apply_state(cluster._states[end_state])
    else:
        shard = cluster.shards[shard_id]
        report = shard.serve(cluster._workloads[workload_id])
        duration = report.total_seconds
        end_state = cluster._state_id(shard)
        cluster._serve_cache[key] = (report, duration, end_state)
    states[shard_id] = end_state
    return report, duration


def _interned_id(
    cluster: "ShardedServiceCluster",
    interned: Dict[int, Tuple[int, WorkloadProfile]],
    workload: WorkloadProfile,
) -> int:
    """``cluster._workload_id(workload)``, memoized per run on the profile's
    identity.

    A run's requests share a handful of profile objects, so an ``id()``
    lookup replaces hashing every field of the frozen dataclass.  The
    table holds each profile it has seen, so no ``id`` is reused while the
    table lives (one run).
    """
    entry = interned.get(id(workload))
    if entry is None:
        entry = (cluster._workload_id(workload), workload)
        interned[id(workload)] = entry
    return entry[0]


def _merged_workload_id(
    cluster: "ShardedServiceCluster",
    interned: Dict[int, Tuple[int, WorkloadProfile]],
    batch: RequestBatch,
    merged_ids: Dict[Tuple[int, int], int],
) -> int:
    """Interned id of the batch's merged workload, memoized per run on
    (base profile identity, summed size).

    The merge itself is delegated to ``RequestBatch.workload`` — the same
    property the reference backend evaluates — so the two backends cannot
    drift if the merge formula ever changes; this wrapper only avoids
    re-running it for every batch of an identical composition.  A miss
    interns the base profile, which keeps it alive for the run, so its
    ``id`` names it in the memo as it does in ``interned``.
    """
    requests = batch.requests
    base = requests[0].workload
    total = 0
    for request in requests:
        total += request.workload.batch_size
    key = (id(base), total)
    workload_id = merged_ids.get(key)
    if workload_id is None:
        _interned_id(cluster, interned, base)
        workload_id = cluster._workload_id(batch.workload)
        merged_ids[key] = workload_id
    return workload_id


def _heap_pick(heap: ShardHeap, batch: RequestBatch, workload_id: int, active_count: int) -> int:
    """Least-loaded dispatch without a topology: a heap pick over the
    active prefix (backend ``pick`` signature)."""
    return heap.pick(active_count)


#: One request's admission prices: ``(batch key, standalone estimate,
#: degraded profile, degraded batch key, degraded standalone estimate)``;
#: the last three are None when the request has no degraded tier.
AdmissionRow = Tuple[
    tuple, float, Optional[WorkloadProfile], Optional[tuple], Optional[float]
]


# -------------------------------------------------------------------- backends
class ReferenceBackend:
    """Plain data structures: linear scans, direct serves, no aggregates.

    One instance serves one run.  ``busy`` is the authoritative per-shard
    busy-until list the loop reads; writes go through :meth:`set_busy`.
    """

    #: Whether a run commits whole batches into flat columns and folds them
    #: once at report time (:func:`_report_aggregates`); the reference
    #: builds one record per request and its report re-derives every
    #: summary from them (the oracle).
    batch_columns = False
    #: Whether every pick is the least-loaded choice, which the fault
    #: runtime may then make in one ordered walk over its live candidates;
    #: the reference re-picks (the oracle for the walk).
    least_loaded = False

    def __init__(self, cluster: "ShardedServiceCluster") -> None:
        self.cluster = cluster
        self.busy = [0.0] * cluster.num_shards

    def set_busy(self, shard_id: int, seconds: float) -> None:
        self.busy[shard_id] = seconds

    def merged(self, batch: RequestBatch) -> WorkloadProfile:
        return batch.workload

    def serve(self, shard_id: int, workload: WorkloadProfile) -> Tuple["ServiceReport", float]:
        report = self.cluster.shards[shard_id].serve(workload)
        return report, report.total_seconds

    def pick(self, batch: RequestBatch, workload: WorkloadProfile, active_count: int) -> int:
        """Dispatch target among the first ``active_count`` activated shards."""
        cluster = self.cluster
        return cluster._pick_shard(batch, self.busy, cluster._order[:active_count])

    def price(self, workload: WorkloadProfile) -> float:
        """Calibrated standalone estimate of one pass of ``workload``."""
        return self.cluster.template.estimate_service_seconds(workload)

    def price_resized(self, base: WorkloadProfile, size: int) -> float:
        """Estimate of ``base`` resized to ``size`` seed nodes (a merged batch)."""
        return self.price(base.with_batch_size(size))

    def admission_row(
        self, request: InferenceRequest, admission: "AdmissionController"
    ) -> AdmissionRow:
        """The :data:`AdmissionRow` of ``request`` under ``admission``."""
        workload = request.workload
        degraded = admission.degraded_profile(workload, request.tenant)
        if degraded is None:
            return workload.batch_key, self.price(workload), None, None, None
        return (
            workload.batch_key,
            self.price(workload),
            degraded,
            degraded.batch_key,
            self.price(degraded),
        )

    def min_backlog(self, active_count: int, now: float) -> float:
        """Smallest remaining backlog among the active shards."""
        busy = self.busy
        return min(
            max(busy[i] - now, 0.0) for i in self.cluster._order[:active_count]
        )

    # Open-batch deadlines.  Ties between expiring batches fire in (deadline,
    # first request id) order, the order ``BatchScheduler.schedule`` sweeps.
    # The run asks only when the batch due next has closed.
    def opened(self, key: object, deadline: float, first_id: int) -> None:
        """A batch opened under ``key`` (the scan needs no index)."""

    def next_deadline(
        self, open_members: Dict[object, List[InferenceRequest]], open_deadline: Dict[object, float]
    ) -> Optional[Tuple[float, object]]:
        """``(deadline, key)`` of the next batch to expire, or None."""
        if not open_deadline:
            return None
        key = min(
            open_deadline,
            key=lambda k: (open_deadline[k], open_members[k][0].request_id),
        )
        return open_deadline[key], key


class FastBackend(ReferenceBackend):
    """Indexed structures and memoization with the reference's values."""

    batch_columns = True

    def __init__(self, cluster: "ShardedServiceCluster") -> None:
        from repro.serving.cluster import POLICY_LEAST_LOADED

        self.cluster = cluster
        self.heap = ShardHeap(cluster.num_shards)
        self.busy = self.heap.busy
        self.least_loaded = cluster.policy == POLICY_LEAST_LOADED
        self._deadlines: List[tuple] = []
        # Per-run tables, filled lazily.  Profile identity -> interned
        # workload id; interned id -> standalone estimate; (interned base
        # id, merged size) -> resized estimate; (profile identity, tenant)
        # -> admission row.  They live as long as the backend, one run, so
        # a template whose state changes between runs is re-priced.
        self._interned: Dict[int, Tuple[int, WorkloadProfile]] = {}
        self._estimates: Dict[int, float] = {}
        self._resized: Dict[Tuple[int, int], float] = {}
        self._rows: Dict[Tuple[int, str], AdmissionRow] = {}
        # The per-batch pieces are bound to their module-level functions
        # (no method frame on the dispatch hot path).
        self.set_busy = self.heap.update
        # ``merged`` hands out interned workload ids, which ``pick`` and
        # ``serve`` take in place of the profile.
        self.merged = partial(_merged_workload_id, cluster, self._interned, merged_ids={})
        states = [cluster._state_id(shard) for shard in cluster.shards]
        self.serve = partial(_cached_serve, cluster, states)
        # A topology's active set is not an index prefix, and locality is
        # not a heap order: both inherit the reference scan over ``busy``.
        if self.least_loaded and cluster.topology is None:
            self.pick = partial(_heap_pick, self.heap)

    def price(self, workload: WorkloadProfile) -> float:
        workload_id = _interned_id(self.cluster, self._interned, workload)
        estimate = self._estimates.get(workload_id)
        if estimate is None:
            estimate = super().price(workload)
            self._estimates[workload_id] = estimate
        return estimate

    def price_resized(self, base: WorkloadProfile, size: int) -> float:
        key = (_interned_id(self.cluster, self._interned, base), size)
        estimate = self._resized.get(key)
        if estimate is None:
            estimate = self.price(base.with_batch_size(size))
            self._resized[key] = estimate
        return estimate

    def admission_row(
        self, request: InferenceRequest, admission: "AdmissionController"
    ) -> AdmissionRow:
        # ``price`` interns (and so keeps alive) the request's profile
        # before the row is stored under its identity.
        key = (id(request.workload), request.tenant)
        row = self._rows.get(key)
        if row is None:
            row = super().admission_row(request, admission)
            self._rows[key] = row
        return row

    def min_backlog(self, active_count: int, now: float) -> float:
        if self.cluster.topology is not None:
            # Non-prefix active set: the heap's prefix shortcut does not
            # apply (value-identical floats either way).
            return super().min_backlog(active_count, now)
        return max(self.heap.min_busy(active_count) - now, 0.0)

    def opened(self, key: object, deadline: float, first_id: int) -> None:
        heapq.heappush(self._deadlines, (deadline, first_id, key))

    def next_deadline(self, open_members, open_deadline):
        # Lazy invalidation: an entry is live while its key's open batch
        # still has that deadline and that opening request.
        heap = self._deadlines
        while heap:
            deadline, first_id, key = heap[0]
            members = open_members.get(key)
            if (
                members is not None
                and open_deadline[key] == deadline
                and members[0].request_id == first_id
            ):
                return deadline, key
            heapq.heappop(heap)
        return None


ENGINE_REFERENCE = "reference"
ENGINE_FAST = "fast"
#: Serving backends by ``engine`` name.
BACKENDS = {ENGINE_REFERENCE: ReferenceBackend, ENGINE_FAST: FastBackend}
#: Valid ``engine`` values.
ENGINES = tuple(BACKENDS)


def check_engine(engine: str) -> None:
    """Reject an ``engine`` value that names no backend."""
    if engine not in BACKENDS:
        raise ValueError(f"unknown serving engine {engine!r}; expected one of {ENGINES}")


class _ChunkedServedLog:
    """Lazy per-request record list of a fast-engine run.

    Holds the run's per-batch dispatch columns (ready time, shard, start,
    duration, report and member count, in commit order) and a callable
    that returns the served requests in served order; the
    ``ServedRequest`` objects are built only if somebody actually reads the
    log.  ``as_dict``/``compact`` never do — they read the aggregates — so
    neither the chunked loop nor the event loop pays the per-request
    objects unless a caller iterates the records.  Materialization walks
    the batches in commit order with each batch's members in order: exactly
    the reference backend's append order, with every float recomputed by
    the same scalar expression, so the records compare equal to a
    reference run's list."""

    __slots__ = (
        "_members",
        "_count",
        "_counts",
        "_ready",
        "_shard_ids",
        "_starts",
        "_durations",
        "_reports",
        "_records",
    )

    def __init__(
        self,
        members: Callable[[], Sequence[InferenceRequest]],
        count: int,
        counts: np.ndarray,
        ready_seconds: np.ndarray,
        shard_ids: np.ndarray,
        starts: np.ndarray,
        durations: np.ndarray,
        reports: List[object],
    ) -> None:
        self._members = members
        self._count = count
        self._counts = counts
        self._ready = ready_seconds
        self._shard_ids = shard_ids
        self._starts = starts
        self._durations = durations
        self._reports = reports
        self._records: Optional[list] = None

    def _materialize(self) -> list:
        if self._records is None:
            from repro.serving.cluster import ServedRequest

            members = self._members()
            ready_seconds = self._ready.tolist()
            shard_ids = self._shard_ids.tolist()
            starts = self._starts.tolist()
            durations = self._durations.tolist()
            reports = self._reports
            records = []
            hi = 0
            for b, batch_size in enumerate(self._counts.tolist()):
                lo, hi = hi, hi + batch_size
                ready = ready_seconds[b]
                shard_id = shard_ids[b]
                duration = durations[b]
                report = reports[b]
                dispatch_delay = starts[b] - ready
                for request in members[lo:hi]:
                    records.append(
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
            self._records = records
        return self._records

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    def __iter__(self):
        return iter(self._materialize())

    def __getitem__(self, index):
        return self._materialize()[index]

    def __eq__(self, other):
        if isinstance(other, _ChunkedServedLog):
            other = other._materialize()
        if isinstance(other, list):
            return self._materialize() == other
        return NotImplemented

    def __repr__(self) -> str:
        state = "materialized" if self._records is not None else "lazy"
        return f"<_ChunkedServedLog {len(self)} records ({state})>"


def _serve_trace_chunked(
    cluster: "ShardedServiceCluster",
    trace,
    slo: Optional["SLOPolicy"],
):
    """Array-native offline replay, the fast engine's ``serve_trace`` path.

    Batch formation and per-request accounting
    (:func:`_report_aggregates`, shared with the event loop's
    report) operate on NumPy views of the trace's structure-of-arrays form
    (:class:`~repro.serving.scheduler.BatchPlan`); the only per-batch Python
    work left is the dispatch decision itself — shard pick, serve-transition
    cache lookup, busy-horizon update — which is inherently sequential
    because each pick depends on the horizons the previous batch wrote.
    Everything else is per run: each batch's merged workload is interned
    in one pass before the loop, the loop appends its shard, start and
    duration to typed columns, and the per-shard request counts and the
    last finish come from those columns afterwards.

    An offline replay has no autoscaler, so every shard stays active and
    the least-loaded pick is the top of a heap holding exactly one
    ``(busy_until, shard_id)`` entry per shard — the reference picker's
    tie order, which no topology's activation order changes.  The picked
    shard is always the one re-timed, so one ``heapreplace`` per batch
    keeps the heap exact: no entry goes stale.
    A serve-cache hit is inlined, and moves the shard's state
    (``apply_state``) only when the transition ends in a different state
    id, as :func:`_cached_serve` does on the event loop.

    Request objects are never materialized: the returned report carries a
    :class:`_ChunkedServedLog` that builds the per-request records only on
    first access.

    Byte-identity with the event loop is by construction:

    * batches come from :meth:`BatchScheduler.schedule_arrays`, whose plan
      is the size-or-timeout batching the event loop forms online
      (``schedule_fast`` wraps the same plan as objects),
    * every float lands through the same scalar expression shape
      (elementwise ``(batching + dispatch) + service``, broadcast of the
      per-batch ``start - ready``, ``busy += duration`` in commit order), and
    * sums fold left-to-right from the same initial values
      (:func:`~repro.analysis.metrics.left_fold_sum`,
      :meth:`LatencyStats.from_array`).

    ``serve_trace`` gates on eligibility: least-loaded dispatch, no fault
    schedule and no fair-mode scheduler (faults and fair batching make the
    next event state-dependent in ways the plan cannot precompute); every
    other replay runs the event loop.
    """
    from repro.serving.cluster import ClusterReport

    arrays = trace.arrays()
    plan = cluster.scheduler.schedule_arrays(trace)
    num_shards = cluster.num_shards
    num_batches = plan.num_batches
    pool = arrays.workload_pool

    # Intern each batch's merged workload — the base profile with the
    # member sizes summed, the merge the event loop evaluates through
    # ``RequestBatch.workload`` — once per distinct (pool slot, summed
    # size) pair, in first-batch order.
    base_slot = plan.base_slot
    merged_sizes = plan.merged_sizes
    pair_codes = base_slot * (int(merged_sizes.max(initial=0)) + 1) + merged_sizes
    _, first_batch, pair_of_batch = np.unique(
        pair_codes, return_index=True, return_inverse=True
    )
    pair_ids = np.empty(len(first_batch), dtype=np.int64)
    for pair in np.argsort(first_batch).tolist():
        b = first_batch[pair]
        merged = pool[base_slot[b]].with_batch_size(int(merged_sizes[b]))
        pair_ids[pair] = cluster._workload_id(merged)
    workload_ids = pair_ids[pair_of_batch.reshape(-1)].tolist()
    ready_array = plan.ready_seconds
    # Python scalars for the dispatch loop: ndarray item reads in a tight
    # loop cost ~3x a list index.
    ready_list = ready_array.tolist()

    shards = cluster.shards
    workloads = cluster._workloads
    interned_states = cluster._states
    cache = cluster._serve_cache
    # Each shard's interned preprocessing state id, tracked through the run.
    states = [cluster._state_id(shard) for shard in shards]
    busy_total = [0.0] * num_shards
    # Typed columns: one machine word per batch, no boxed floats kept.
    shard_column = array("q")
    start_column = array("d")
    duration_column = array("d")
    add_shard = shard_column.append
    add_start = start_column.append
    add_duration = duration_column.append
    reports: List[object] = []
    add_report = reports.append

    heap = [(0.0, shard_id) for shard_id in range(num_shards)]
    retime = heapq.heapreplace
    for b in range(num_batches):
        workload_id = workload_ids[b]
        ready = ready_list[b]
        busy_until, shard_id = heap[0]
        start = ready if ready >= busy_until else busy_until
        state = states[shard_id]
        hit = cache.get((state, workload_id))
        if hit is None:
            shard = shards[shard_id]
            report = shard.serve(workloads[workload_id])
            duration = report.total_seconds
            end_state = cluster._state_id(shard)
            cache[(state, workload_id)] = (report, duration, end_state)
        else:
            report, duration, end_state = hit
            if end_state != state:
                shards[shard_id].preprocessing.apply_state(interned_states[end_state])
        states[shard_id] = end_state
        retime(heap, (start + duration, shard_id))
        busy_total[shard_id] += duration
        add_shard(shard_id)
        add_start(start)
        add_duration(duration)
        add_report(report)

    shard_ids = np.frombuffer(shard_column, dtype=np.int64)
    starts = np.frombuffer(start_column, dtype=np.float64)
    durations = np.frombuffer(duration_column, dtype=np.float64)
    counts = np.diff(plan.batch_offsets)
    shard_requests = np.bincount(shard_ids, weights=counts, minlength=num_shards)
    last_finish = float(np.max(starts + durations, initial=0.0))

    member_positions = plan.member_positions
    total_requests = len(member_positions)
    arrivals = arrays.arrival_seconds
    aggregates, _ = _report_aggregates(
        slo,
        ready_array,
        starts,
        durations,
        counts,
        arrivals[member_positions],
        arrays.workload_index[member_positions],
        pool,
        arrays.tenant_index[member_positions],
        arrays.tenant_pool,
    )

    def members() -> List[InferenceRequest]:
        requests = trace.requests
        return [requests[p] for p in member_positions.tolist()]

    served = _ChunkedServedLog(
        members, total_requests, counts, ready_array, shard_ids, starts, durations, reports
    )
    first_arrival = float(arrivals[0])
    makespan = last_finish - first_arrival if total_requests else 0.0
    return ClusterReport(
        system=cluster.system_name,
        policy=cluster.policy,
        num_shards=num_shards,
        served=served,
        num_batches=num_batches,
        makespan_seconds=makespan,
        shard_busy_seconds=busy_total,
        shard_requests=shard_requests.astype(np.int64).tolist(),
        slo=slo,
        aggregates=aggregates,
        faults=None,
    )
