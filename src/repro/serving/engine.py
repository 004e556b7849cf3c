"""Serving backends: the data structures behind the cluster's event loop.

:class:`~repro.serving.cluster.ShardedServiceCluster` runs one event loop,
online and for offline replays alike.  The ``engine`` option only picks the
*backend* that loop runs on, from :data:`BACKENDS`:

* :class:`ReferenceBackend` (``"reference"``) — plain linear scans, a direct
  ``GNNService.serve`` per batch, and no streaming aggregates: the report
  re-derives every summary from the per-request records, which keeps it an
  independent oracle for the fast backend's accumulators.
* :class:`FastBackend` (``"fast"``, the default) — the same loop on indexed
  structures and memoization:

  * **Serve-transition cache** — a batch's :class:`ServiceReport` is a pure
    function of ``(preprocessing state, merged workload)``; the backend
    caches the ``(state, workload) -> (report, duration, next state)``
    transition and replays it on any shard in the same starting state
    (``PreprocessingSystem.state_key`` / ``snapshot_state`` /
    ``apply_state``).  States and merged workloads are interned to small
    ints for the cluster's lifetime and each run tracks every shard's
    state id, so a hit is an int-tuple lookup.  For DynPre this eliminates
    the per-batch bitstream-library sweep; for stateless systems it
    eliminates the analytic model evaluation outright.
  * **Indexed shard heap** — least-loaded dispatch and admission backlog
    reads pop a ``(busy_until, shard_id)`` priority structure with lazy
    staleness instead of scanning every shard per batch.
  * **Deadline heap** — the event loop's next-expiring-batch query is a
    heap top instead of a scan over all open batches.
  * **Streaming aggregates** — sojourns fold into
    :class:`~repro.analysis.metrics.StreamingLatencyStats` and running
    decomposition sums as requests are served (same accumulation order as
    the reference report properties, hence bit-identical), so a report can
    :meth:`~repro.serving.cluster.ClusterReport.compact` away its
    per-request records at 100k-request scale.

Fast-engine offline replays with no faults and no fair batching skip the
event loop altogether for the array-native chunked loop
(:func:`_serve_trace_chunked`): its batch plan comes from the trace's
structure-of-arrays view (``BatchScheduler.schedule_arrays``) in one pass.

Every piece a backend swaps returns the value the reference piece would, so
both backends — and the chunked loop — render byte-identical reports
(golden- and property-test enforced); the control flow and every float
expression that lands in a report live once, in the event loop.
"""

from __future__ import annotations

import heapq
from functools import partial
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.metrics import StreamingLatencyStats
from repro.serving.requests import InferenceRequest
from repro.serving.scheduler import RequestBatch
from repro.system.workload import QUALITY_DEGRADED, WorkloadProfile

if TYPE_CHECKING:
    from repro.serving.cluster import ShardedServiceCluster
    from repro.serving.control import SLOPolicy
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


class _RunAccumulator:
    """Streaming per-request aggregates of one engine run.

    Accumulation order matches the reference report properties exactly
    (served order, left-fold sums) — per tenant too — which is what makes
    the resulting :class:`~repro.serving.cluster.ReportAggregates`
    bit-identical to re-deriving the values from the per-request records.
    """

    __slots__ = (
        "latency",
        "batching_sum",
        "dispatch_sum",
        "service_sum",
        "slo_met",
        "slo",
        "served_degraded",
        "slo_met_degraded",
        "tenant_latency",
        "tenant_served",
        "tenant_slo_met",
        "tenant_shed",
        "tenant_degraded",
        "tenant_slo_met_degraded",
    )

    def __init__(self, slo: Optional["SLOPolicy"]) -> None:
        self.latency = StreamingLatencyStats()
        self.batching_sum = 0.0
        self.dispatch_sum = 0.0
        self.service_sum = 0.0
        self.slo_met = 0
        self.slo = slo
        self.served_degraded = 0
        self.slo_met_degraded = 0
        self.tenant_latency: Dict[str, StreamingLatencyStats] = {}
        self.tenant_served: Dict[str, int] = {}
        self.tenant_slo_met: Dict[str, int] = {}
        self.tenant_shed: Dict[str, int] = {}
        self.tenant_degraded: Dict[str, int] = {}
        self.tenant_slo_met_degraded: Dict[str, int] = {}

    def push(
        self,
        request: InferenceRequest,
        batching_delay: float,
        dispatch_delay: float,
        service_seconds: float,
    ) -> None:
        sojourn = batching_delay + dispatch_delay + service_seconds
        self.latency.push(sojourn)
        self.batching_sum += batching_delay
        self.dispatch_sum += dispatch_delay
        self.service_sum += service_seconds
        tenant = request.tenant
        degraded = request.workload.quality == QUALITY_DEGRADED
        per_tenant = self.tenant_latency.get(tenant)
        if per_tenant is None:
            per_tenant = StreamingLatencyStats()
            self.tenant_latency[tenant] = per_tenant
        per_tenant.push(sojourn)
        self.tenant_served[tenant] = self.tenant_served.get(tenant, 0) + 1
        if degraded:
            self.served_degraded += 1
            self.tenant_degraded[tenant] = self.tenant_degraded.get(tenant, 0) + 1
        if self.slo is None or sojourn <= self.slo.slo_for(request.workload, tenant):
            if self.slo is not None:
                self.slo_met += 1
                if degraded:
                    self.slo_met_degraded += 1
            self.tenant_slo_met[tenant] = self.tenant_slo_met.get(tenant, 0) + 1
            if degraded:
                self.tenant_slo_met_degraded[tenant] = (
                    self.tenant_slo_met_degraded.get(tenant, 0) + 1
                )

    def push_shed(self, request: InferenceRequest) -> None:
        tenant = request.tenant
        self.tenant_shed[tenant] = self.tenant_shed.get(tenant, 0) + 1

    def aggregates(self, count: int, shed_count: int):
        from repro.serving.cluster import ReportAggregates

        from repro.analysis.metrics import LatencyStats, TenantStats

        tenants = {}
        for tenant in sorted(set(self.tenant_served) | set(self.tenant_shed)):
            served = self.tenant_served.get(tenant, 0)
            shed = self.tenant_shed.get(tenant, 0)
            latency = self.tenant_latency.get(tenant)
            tenants[tenant] = TenantStats(
                tenant=tenant,
                offered=served + shed,
                served=served,
                shed=shed,
                slo_met=self.tenant_slo_met.get(tenant, 0),
                latency=latency.stats() if latency is not None else LatencyStats(),
                served_degraded=self.tenant_degraded.get(tenant, 0),
                slo_met_degraded=self.tenant_slo_met_degraded.get(tenant, 0),
            )
        return ReportAggregates(
            count=count,
            shed_count=shed_count,
            latency=self.latency.stats(),
            batching_sum=self.batching_sum,
            dispatch_sum=self.dispatch_sum,
            service_sum=self.service_sum,
            slo_met=self.slo_met if self.slo is not None else count,
            tenants=tenants,
            served_degraded=self.served_degraded,
            slo_met_degraded=(
                self.slo_met_degraded if self.slo is not None else self.served_degraded
            ),
        )


def _cached_serve(
    cluster: "ShardedServiceCluster", states: List[int], shard_id: int, workload_id: int
) -> Tuple["ServiceReport", float]:
    """Serve workload ``workload_id`` on shard ``shard_id`` through the
    serve-transition cache.

    ``states`` holds each shard's interned state id for the current run and
    is moved to the transition's end state.  A hit replays the memoized
    ``(report, duration, end state)`` transition: the report object is
    shared (it is immutable in practice and compares by value), and
    ``apply_state`` moves the shard to the exact state a fresh pass would
    have left — including the reconfiguration event log, which the
    controller re-derives from the (old, new) configuration pair.
    """
    key = (states[shard_id], workload_id)
    hit = cluster._serve_cache.get(key)
    shard = cluster.shards[shard_id]
    if hit is not None:
        report, duration, end_state = hit
        shard.preprocessing.apply_state(cluster._snapshots[end_state])
    else:
        report = shard.serve(cluster._workloads[workload_id])
        duration = report.total_seconds
        end_state = cluster._state_id(shard)
        cluster._serve_cache[key] = (report, duration, end_state)
    states[shard_id] = end_state
    return report, duration


def _merged_workload_id(
    cluster: "ShardedServiceCluster", batch: RequestBatch, merged_ids: Dict[tuple, int]
) -> int:
    """Interned id of the batch's merged workload, memoized per run on
    (base profile, summed size).

    The merge itself is delegated to ``RequestBatch.workload`` — the same
    property the reference backend evaluates — so the two backends cannot
    drift if the merge formula ever changes; this wrapper only avoids
    re-running it for every batch of an identical composition.
    """
    base = batch.requests[0].workload
    total = sum(request.workload.batch_size for request in batch.requests)
    key = (base, total)
    workload_id = merged_ids.get(key)
    if workload_id is None:
        workload_id = cluster._workload_id(batch.workload)
        merged_ids[key] = workload_id
    return workload_id


def _pick_shard(
    cluster: "ShardedServiceCluster",
    heap: ShardHeap,
    batch: RequestBatch,
    workload_id: int,
    active_count: int,
) -> int:
    """Replicates ``ShardedServiceCluster._pick_shard`` on the shard heap."""
    from repro.serving.cluster import (
        POLICY_LOCALITY,
        POLICY_ROUND_ROBIN,
        _home_shard,
    )

    if cluster.topology is not None:
        # Domain-aware placement: the active set is an activation-order
        # slice, not the index prefix the heap shortcuts assume.  Delegate
        # to the reference picker over the heap's authoritative busy list —
        # the same call the fault path makes — so both backends pick
        # identically under any topology.
        return cluster._pick_shard(batch, heap.busy, cluster._order[:active_count])
    if cluster.policy == POLICY_ROUND_ROBIN:
        shard_id = cluster._rr_next % active_count
        cluster._rr_next += 1
        return shard_id
    if cluster.policy == POLICY_LOCALITY:
        busy = heap.busy
        workload = cluster._workloads[workload_id]
        configured = [
            i
            for i in range(active_count)
            if cluster.shards[i].configured_for(workload)
        ]
        if configured:
            preferred = min(configured, key=lambda i: (busy[i], i))
        else:
            preferred = _home_shard(batch, active_count)
            if cluster.rebalance_seconds is not None:
                # Stale-state re-homing is written once, on the cluster;
                # the heap's busy list is the authoritative horizon view.
                preferred = cluster._rebalance(
                    batch, busy, range(active_count), preferred
                )
        backlog = busy[preferred] - batch.ready_seconds
        if backlog <= cluster.locality_spill_seconds:
            chosen = preferred
        else:
            chosen = heap.pick(active_count)
        if cluster.rebalance_seconds is not None:
            cluster._shard_key[chosen] = (batch.key, batch.ready_seconds)
        return chosen
    return heap.pick(active_count)


# -------------------------------------------------------------------- backends
class ReferenceBackend:
    """Plain data structures: linear scans, direct serves, no aggregates.

    One instance serves one run.  ``busy`` is the authoritative per-shard
    busy-until list the loop reads; writes go through :meth:`set_busy`.
    """

    #: Streaming report aggregates (``None``: the report re-derives them).
    accumulator: Optional[_RunAccumulator] = None

    def __init__(self, cluster: "ShardedServiceCluster", slo: Optional["SLOPolicy"]) -> None:
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

    def min_backlog(self, active_count: int, now: float) -> float:
        """Smallest remaining backlog among the active shards."""
        busy = self.busy
        return min(
            max(busy[i] - now, 0.0) for i in self.cluster._order[:active_count]
        )

    # Open-batch deadlines.  Ties between expiring batches fire in (deadline,
    # first request id) order, the order ``BatchScheduler.schedule`` sweeps.
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

    def fired(self) -> None:
        """The :meth:`next_deadline` batch was just closed."""


class FastBackend(ReferenceBackend):
    """Indexed structures and memoization with the reference's values."""

    def __init__(self, cluster: "ShardedServiceCluster", slo: Optional["SLOPolicy"]) -> None:
        self.cluster = cluster
        self.heap = ShardHeap(cluster.num_shards)
        self.busy = self.heap.busy
        self.accumulator = _RunAccumulator(slo)
        self._deadlines: List[tuple] = []
        # The per-batch pieces are bound to their module-level functions
        # (no method frame on the dispatch hot path).
        self.set_busy = self.heap.update
        # ``merged`` hands out interned workload ids, which ``pick`` and
        # ``serve`` take in place of the profile.
        self.merged = partial(_merged_workload_id, cluster, merged_ids={})
        states = [cluster._state_id(shard) for shard in cluster.shards]
        self.serve = partial(_cached_serve, cluster, states)
        self.pick = partial(_pick_shard, cluster, self.heap)

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

    def fired(self) -> None:
        heapq.heappop(self._deadlines)


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


class _BatchView:
    """Mutable stand-in for :class:`RequestBatch` in the chunked dispatch loop.

    ``_pick_shard`` (both the heap shortcut and the delegated reference
    picker) reads only ``key``, ``ready_seconds`` and ``workload`` — never
    the member list — so the chunked loop reuses one view object per run
    instead of materializing a ``RequestBatch`` per batch."""

    __slots__ = ("key", "ready_seconds", "workload")


class _ChunkedServedLog:
    """Lazy per-request record list of a chunked run.

    Holds the plan arrays and per-batch dispatch results; the
    ``ServedRequest`` objects (and the request objects they wrap) are built
    only if somebody actually reads the log.  ``as_dict``/``compact`` never
    do — they read the streaming aggregates — so a chunked 1M-request run
    never pays the object materialization unless a caller iterates the
    records.  Materialization order is batch dispatch order with members in
    arrival order: exactly the event loop's append order, with every float
    recomputed by the same scalar expression, so the records compare equal
    to an event-loop run's list."""

    __slots__ = (
        "_trace",
        "_plan",
        "_shard_ids",
        "_starts",
        "_durations",
        "_reports",
        "_records",
    )

    def __init__(self, trace, plan, shard_ids, starts, durations, reports) -> None:
        self._trace = trace
        self._plan = plan
        self._shard_ids = shard_ids
        self._starts = starts
        self._durations = durations
        self._reports = reports
        self._records: Optional[list] = None

    def _materialize(self) -> list:
        if self._records is None:
            from repro.serving.cluster import ServedRequest

            requests = self._trace.requests
            plan = self._plan
            positions = plan.member_positions.tolist()
            offsets = plan.batch_offsets.tolist()
            ready_seconds = plan.ready_seconds.tolist()
            shard_ids = self._shard_ids.tolist()
            starts = self._starts.tolist()
            durations = self._durations.tolist()
            reports = self._reports
            records = []
            for b in range(len(ready_seconds)):
                lo, hi = offsets[b], offsets[b + 1]
                ready = ready_seconds[b]
                shard_id = shard_ids[b]
                duration = durations[b]
                report = reports[b]
                batch_size = hi - lo
                dispatch_delay = starts[b] - ready
                for p in positions[lo:hi]:
                    request = requests[p]
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
        return len(self._plan.member_positions)

    def __bool__(self) -> bool:
        return len(self._plan.member_positions) > 0

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


def _left_fold_sum(prior: float, values: np.ndarray) -> float:
    """Sequential left-fold sum of ``values`` starting from ``prior``.

    Bit-identical to ``for v in values: prior += v``:
    ``numpy.add.accumulate`` is a sequential fold (unlike ``numpy.sum``'s
    pairwise reduction), so the chunked engine's decomposition sums carry
    the exact rounding trail of the event loop's ``+=`` chain."""
    if values.size == 0:
        return prior
    acc = np.empty(values.size + 1, dtype=np.float64)
    acc[0] = prior
    acc[1:] = values
    return float(np.add.accumulate(acc)[-1])


def _serve_trace_chunked(
    cluster: "ShardedServiceCluster",
    trace,
    slo: Optional["SLOPolicy"],
):
    """Array-native offline replay, the fast engine's ``serve_trace`` path.

    Batch formation, per-request accounting and the streaming aggregates all
    operate on NumPy views of the trace's structure-of-arrays form
    (:class:`~repro.serving.scheduler.BatchPlan`); the only per-batch Python
    work left is the dispatch decision itself — shard pick, serve-transition
    cache lookup, busy-horizon update — which is inherently sequential
    because each pick depends on the horizons the previous batch wrote.
    Request objects are never materialized: the returned report carries a
    :class:`_ChunkedServedLog` that builds the per-request records only on
    first access.

    Byte-identity with the event loop is by construction:

    * batches come from :meth:`BatchScheduler.schedule_arrays`, whose plan
      is the size-or-timeout batching the event loop forms online
      (``schedule_fast`` wraps the same plan as objects),
    * every float lands through the same scalar expression shape
      (elementwise ``(batching + dispatch) + service``, broadcast of the
      per-batch ``start - ready``), and
    * sums fold left-to-right from the same initial values
      (:func:`_left_fold_sum`, ``StreamingLatencyStats.extend``).

    ``serve_trace`` gates on eligibility: no fault schedule and no
    fair-mode scheduler (both make the next event state-dependent in ways
    the plan cannot precompute); every other replay runs the event loop.
    """
    from repro.serving.cluster import POLICY_LEAST_LOADED, ClusterReport

    cluster._reset_dispatch_state()
    arrays = trace.arrays()
    plan = cluster.scheduler.schedule_arrays(trace)
    num_shards = cluster.num_shards
    heap = ShardHeap(num_shards)
    busy_total = [0.0] * num_shards
    shard_requests = [0] * num_shards
    # Interned ids: each shard's preprocessing state, and the merged
    # workload of each (pool slot, summed size) pair seen this run.
    states = [cluster._state_id(shard) for shard in cluster.shards]
    workload_ids: Dict[Tuple[int, int], int] = {}
    last_finish = 0.0

    pool = arrays.workload_pool
    key_of_slot = [workload.batch_key for workload in pool]
    num_batches = plan.num_batches
    offsets = plan.batch_offsets
    counts = np.diff(offsets)
    ready_array = plan.ready_seconds
    # Python scalars for the dispatch loop: ndarray item reads in a tight
    # loop cost ~3x a list index.
    ready_list = ready_array.tolist()
    counts_list = counts.tolist()
    base_slots = plan.base_slot.tolist()
    merged_totals = plan.merged_sizes.tolist()

    shard_ids = np.empty(num_batches, dtype=np.int64)
    starts = np.empty(num_batches, dtype=np.float64)
    durations = np.empty(num_batches, dtype=np.float64)
    reports: List[object] = [None] * num_batches

    # The common dispatch configuration (least-loaded, no topology) is a
    # bare heap pick; hoisting the policy test out of the loop skips the
    # delegating ``_pick_shard`` call per batch.
    simple_pick = cluster.topology is None and cluster.policy == POLICY_LEAST_LOADED
    busy = heap.busy
    view = _BatchView()
    for b in range(num_batches):
        slot = base_slots[b]
        total = merged_totals[b]
        merged_key = (slot, total)
        workload_id = workload_ids.get(merged_key)
        if workload_id is None:
            # Same merge the event loop evaluates through
            # ``RequestBatch.workload``: base profile, member sizes summed.
            workload_id = cluster._workload_id(pool[slot].with_batch_size(total))
            workload_ids[merged_key] = workload_id
        ready = ready_list[b]
        if simple_pick:
            shard_id = heap.pick(num_shards)
        else:
            view.key = key_of_slot[slot]
            view.ready_seconds = ready
            view.workload = cluster._workloads[workload_id]
            shard_id = _pick_shard(cluster, heap, view, workload_id, num_shards)
        start = max(ready, busy[shard_id])
        report, duration = _cached_serve(cluster, states, shard_id, workload_id)
        finish = start + duration
        heap.update(shard_id, finish)
        busy_total[shard_id] += duration
        shard_requests[shard_id] += counts_list[b]
        if finish > last_finish:
            last_finish = finish
        shard_ids[b] = shard_id
        starts[b] = start
        durations[b] = duration
        reports[b] = report

    # ---------------------------------------------- vectorized accounting
    member_positions = plan.member_positions
    total_requests = len(member_positions)
    arrivals = arrays.arrival_seconds
    batch_of = np.repeat(np.arange(num_batches, dtype=np.int64), counts)
    # Same scalar expressions as the event loop, elementwise: the per-batch
    # ``start - ready`` broadcast hands every member the identical double.
    batching = ready_array[batch_of] - arrivals[member_positions]
    dispatch = (starts - ready_array)[batch_of]
    service = durations[batch_of]
    sojourn = batching + dispatch + service

    workload_slots = arrays.workload_index[member_positions]
    tenant_slots = arrays.tenant_index[member_positions]
    tenant_pool = arrays.tenant_pool
    degraded_of_slot = np.asarray(
        [workload.quality == QUALITY_DEGRADED for workload in pool], dtype=bool
    )
    degraded = degraded_of_slot[workload_slots]

    accumulator = _RunAccumulator(slo)
    accumulator.latency.extend(sojourn)
    accumulator.batching_sum = _left_fold_sum(0.0, batching)
    accumulator.dispatch_sum = _left_fold_sum(0.0, dispatch)
    accumulator.service_sum = _left_fold_sum(0.0, service)
    accumulator.served_degraded = int(np.count_nonzero(degraded))
    if slo is not None:
        # ``slo_for`` depends only on the workload's name and the tenant, so
        # one threshold per (workload slot, tenant slot) pair covers every
        # request.
        thresholds = np.empty((len(pool), len(tenant_pool)), dtype=np.float64)
        for slot, workload in enumerate(pool):
            for tenant_slot, tenant in enumerate(tenant_pool):
                thresholds[slot, tenant_slot] = slo.slo_for(workload, tenant)
        met = sojourn <= thresholds[workload_slots, tenant_slots]
        accumulator.slo_met = int(np.count_nonzero(met))
        accumulator.slo_met_degraded = int(np.count_nonzero(met & degraded))
    else:
        # The reference loop counts every request into the per-tenant met
        # tallies when no SLO is set (the global ones stay zero and
        # ``aggregates`` substitutes the counts).
        met = np.ones(total_requests, dtype=bool)
    for tenant_slot, tenant in enumerate(tenant_pool):
        mask = tenant_slots == tenant_slot
        tenant_count = int(np.count_nonzero(mask))
        if tenant_count == 0:
            # A pool entry no surviving request references (merge dedupe
            # keeps it) — the reference accumulator never sees the tenant.
            continue
        stats = StreamingLatencyStats()
        # Boolean masking preserves served order, so the per-tenant fold
        # carries the same rounding trail as the reference per-tenant push.
        stats.extend(sojourn[mask])
        accumulator.tenant_latency[tenant] = stats
        accumulator.tenant_served[tenant] = tenant_count
        accumulator.tenant_slo_met[tenant] = int(np.count_nonzero(met[mask]))
        tenant_degraded = degraded[mask]
        accumulator.tenant_degraded[tenant] = int(np.count_nonzero(tenant_degraded))
        accumulator.tenant_slo_met_degraded[tenant] = int(
            np.count_nonzero(met[mask] & tenant_degraded)
        )

    served = _ChunkedServedLog(trace, plan, shard_ids, starts, durations, reports)
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
        shard_requests=shard_requests,
        slo=slo,
        aggregates=accumulator.aggregates(count=total_requests, shed_count=0),
        faults=None,
    )
