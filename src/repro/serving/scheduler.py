"""Batch scheduler: coalesce compatible requests into batched preprocessing.

Requests whose workloads agree on everything except the seed-batch size (see
:meth:`~repro.system.workload.WorkloadProfile.batch_key`) can share one
preprocessing pass: their seed sets are concatenated, so the batched pass is
the same workload with the batch sizes summed — exactly what the vectorized
samplers' batch APIs (``CSCGraph.in_neighbors_batch``) exploit on the
functional path, and what the analytic models price through ``batch_size``.

The scheduler implements the classic size-or-timeout policy: a batch closes
as soon as it reaches ``max_batch_size`` (ready at the filling request's
arrival) or when ``max_wait_seconds`` elapse after its first request arrived
(ready at that deadline), whichever comes first.  With ``max_batch_size=1``
every request becomes its own batch, ready at its own arrival, which is the
contract the 1-shard identity test leans on.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Hashable, List, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from repro.serving.requests import InferenceRequest, RequestTrace
from repro.system.workload import WorkloadProfile, check_count


class BatchPlan(NamedTuple):
    """Array-level batch formation result (the chunked engine's working set).

    One row per batch, in the order the event loop closes them (the order
    :meth:`BatchScheduler.schedule` returns).  Member rows are *positions*
    into the trace's structure-of-arrays view
    (:meth:`~repro.serving.requests.RequestTrace.arrays`), so a plan never
    materializes request objects.

    Attributes:
        member_positions: int64 trace positions, concatenated per batch;
            batch ``b`` owns ``member_positions[batch_offsets[b]:
            batch_offsets[b + 1]]``, in arrival order.
        batch_offsets: int64 prefix offsets, length ``num_batches + 1``.
        ready_seconds: float64 close time per batch.
        base_slot: int64 workload-pool slot of each batch's first member
            (the profile the merged workload derives from).
        merged_sizes: int64 summed member batch sizes per batch (the merged
            workload's ``batch_size``).
    """

    member_positions: np.ndarray
    batch_offsets: np.ndarray
    ready_seconds: np.ndarray
    base_slot: np.ndarray
    merged_sizes: np.ndarray

    @property
    def num_batches(self) -> int:
        return len(self.ready_seconds)


@dataclass(slots=True)
class RequestBatch:
    """A group of compatible requests served by one preprocessing pass.

    Attributes:
        requests: member requests in arrival order.
        ready_seconds: simulated time at which the batch closed and became
            dispatchable (arrival of the filling request, or the batching
            timeout deadline).
    """

    requests: List[InferenceRequest]
    ready_seconds: float

    def __len__(self) -> int:
        return len(self.requests)

    @property
    def key(self) -> Hashable:
        """The compatibility key all member workloads share."""
        return self.requests[0].workload.batch_key

    @property
    def workload(self) -> WorkloadProfile:
        """The merged workload of the batch: member batch sizes summed."""
        base = self.requests[0].workload
        total = sum(request.workload.batch_size for request in self.requests)
        return base.with_batch_size(total)

    def batching_delay(self, request: InferenceRequest) -> float:
        """Time ``request`` spent waiting for its batch to close."""
        return self.ready_seconds - request.arrival_seconds


class BatchScheduler:
    """Size-or-timeout batching over a request trace.

    Args:
        max_batch_size: maximum requests coalesced into one pass (>= 1).
        max_wait_seconds: how long the first request of a batch may wait for
            companions before the batch closes anyway (>= 0; 0 disables
            cross-request batching unless arrivals coincide exactly).
        tenant_weights: enables weighted-fair batch formation.  A mapping of
            tenant name to weight; a tenant's slot quantum per batch is its
            weighted share of ``max_batch_size`` (unlisted tenants weigh
            1.0 against the listed total).  ``None`` (the default) keeps
            the plain FIFO fill — single-tenant behaviour is unchanged.
            See :class:`TenantFairBatcher` for the deficit round-robin
            mechanics.
    """

    def __init__(
        self,
        max_batch_size: int = 8,
        max_wait_seconds: float = 0.0,
        tenant_weights: Optional[Mapping[str, float]] = None,
    ) -> None:
        check_count("max_batch_size", max_batch_size, 1)
        if not (math.isfinite(max_wait_seconds) and max_wait_seconds >= 0):
            raise ValueError(
                f"max_wait_seconds must be a finite number >= 0, got {max_wait_seconds}"
            )
        if tenant_weights is not None:
            for tenant, weight in tenant_weights.items():
                if not (math.isfinite(weight) and weight > 0):
                    raise ValueError(
                        f"weight for tenant {tenant!r} must be a finite positive "
                        f"number, got {weight}"
                    )
        self.max_batch_size = max_batch_size
        self.max_wait_seconds = max_wait_seconds
        self.tenant_weights = dict(tenant_weights) if tenant_weights is not None else None

    @property
    def fair(self) -> bool:
        """Whether weighted-fair (tenant-aware) batch formation is enabled."""
        return self.tenant_weights is not None

    def fair_batcher(self) -> "TenantFairBatcher":
        """A fresh fair-batching state machine for one serving run."""
        if not self.fair:
            raise ValueError("fair_batcher() requires tenant_weights")
        return TenantFairBatcher(self)

    def schedule(self, trace: RequestTrace) -> List[RequestBatch]:
        """Group the trace into batches, in the order the event loop closes them.

        Deterministic: depends only on the trace and the scheduler's
        parameters, never on cluster state, so the same trace produces the
        same batches regardless of how many shards later serve them.  The
        sweep replays the event loop's batching events: before each arrival,
        every timer due at or before it fires in ``(deadline, first request
        id)`` order; then the arrival joins its key's batch, closing it when
        full.  Fair mode has no offline schedule (the event loop drives
        :class:`TenantFairBatcher` directly) and raises.
        """
        if self.fair:
            raise ValueError("schedule() does not support fair mode")
        open_batches: Dict[Hashable, Tuple[List[InferenceRequest], float]] = {}
        closed: List[RequestBatch] = []

        def close(key: Hashable, ready_seconds: float) -> None:
            members, _ = open_batches.pop(key)
            closed.append(RequestBatch(requests=members, ready_seconds=ready_seconds))

        def fire_timers(until: Optional[float]) -> None:
            # Between two arrivals no batch opens, so firing the due timers
            # in one sorted pass is the event loop's one-at-a-time order.
            expired = sorted(
                (deadline, members[0].request_id, key)
                for key, (members, deadline) in open_batches.items()
                if until is None or deadline <= until
            )
            for deadline, _, key in expired:
                close(key, deadline)

        for request in trace:
            now = request.arrival_seconds
            fire_timers(now)
            key = request.workload.batch_key
            if key not in open_batches:
                open_batches[key] = ([], now + self.max_wait_seconds)
            members, _ = open_batches[key]
            members.append(request)
            if len(members) >= self.max_batch_size:
                close(key, now)

        # Remaining batches wait out their timers (the trace has ended, so no
        # filler request can close them early).
        fire_timers(None)
        return closed

    def schedule_fast(self, trace: RequestTrace) -> List[RequestBatch]:
        """Array-level batch formation, equivalent to :meth:`schedule`.

        A thin object-materializing wrapper over :meth:`schedule_arrays`:
        the plan computes membership and ready times on the trace's SoA
        view, and this method builds :class:`RequestBatch` objects from it.
        No serving path calls it; it is the object view of the plan the
        chunked engine consumes, kept as a test oracle that the suites
        check batch-for-batch against :meth:`schedule`.  Fair mode raises,
        as :meth:`schedule_arrays` does.
        """
        plan = self.schedule_arrays(trace)
        requests = trace.requests
        positions = plan.member_positions.tolist()
        offsets = plan.batch_offsets.tolist()
        ready = plan.ready_seconds.tolist()
        return [
            RequestBatch(
                requests=[requests[p] for p in positions[offsets[b]:offsets[b + 1]]],
                ready_seconds=ready[b],
            )
            for b in range(len(ready))
        ]

    def schedule_arrays(self, trace: RequestTrace) -> BatchPlan:
        """Batch formation on the trace's SoA view, no request objects.

        The array-level core behind :meth:`schedule_fast` and the chunked
        serving engine: batch membership under the size-or-timeout policy is
        independent per compatibility key, so each key's arrival
        subsequence chunks greedily — a batch opened at ``t0`` absorbs
        same-key arrivals strictly before ``t0 + max_wait_seconds`` (an
        arrival exactly at the deadline fires the timer first and starts
        the next batch, the event loop's tie-break) up to
        ``max_batch_size``, closing at the filling member's arrival or at
        the deadline.  Every arrival's would-be batch end and close time
        come from one ``searchsorted`` per key group; the batches are then
        the chain of starts from each group's first arrival.

        The plan rows are sorted into the event loop's closing order.  At one
        instant, timers fire before arrivals are processed, in first-request-
        id order; a batch closed by an arrival — filled to the cap, or a
        zero-wait batch whose timer fires straight after its opener — closes
        at that arrival's turn, in trace order, which is request-id order
        among same-instant arrivals.

        Fair mode has no array-level path (membership depends on the
        deficit state, not just per-key arrival order) and raises.
        """
        if self.fair:
            raise ValueError("schedule_arrays() does not support fair mode")
        arrays = trace.arrays()
        arrivals = arrays.arrival_seconds
        workload_index = arrays.workload_index
        pool = arrays.workload_pool
        num_requests = len(arrivals)

        # Map workload-pool slots to compatibility-key ids (slots that differ
        # only in batch size share a key and therefore a group).
        key_id_of: Dict[Hashable, int] = {}
        keyid_of_slot = np.empty(len(pool), dtype=np.int64)
        for slot, workload in enumerate(pool):
            key = workload.batch_key
            key_id = key_id_of.setdefault(key, len(key_id_of))
            keyid_of_slot[slot] = key_id
        if len(key_id_of) <= 1:
            order = np.arange(num_requests, dtype=np.int64)
            group_starts = [0] if num_requests else []
            group_ends = [num_requests] if num_requests else []
        else:
            request_keys = keyid_of_slot[workload_index]
            # Stable sort keeps each key's subsequence in arrival order.
            order = np.argsort(request_keys, kind="stable")
            sorted_keys = request_keys[order]
            cuts = (np.flatnonzero(np.diff(sorted_keys)) + 1).tolist()
            group_starts = [0] + cuts
            group_ends = cuts + [num_requests]

        wait = self.max_wait_seconds
        # No batch can hold more than the whole trace, so a larger cap acts
        # as ``num_requests + 1`` and index arithmetic stays within int64.
        cap = min(self.max_batch_size, num_requests + 1)
        # Every arrival's would-be batch if it opened one, in one pass per
        # group: the batch absorbs same-key arrivals strictly before the
        # deadline (side="left": an arrival exactly at the deadline fires
        # the timer first and starts the next batch) up to ``cap``, and at
        # least its opener (max_wait_seconds == 0).  A full batch closes at
        # its filling member's arrival, any other at the opener's deadline.
        times = arrivals[order]
        deadlines = times + wait
        bound = np.empty(num_requests, dtype=np.int64)
        for group_start, group_end in zip(group_starts, group_ends):
            group = slice(group_start, group_end)
            bound[group] = group_start + np.searchsorted(
                times[group], deadlines[group], side="left"
            )
        position = np.arange(num_requests, dtype=np.int64)
        np.maximum(bound, position + 1, out=bound)
        full = bound - position >= cap
        batch_end = np.where(full, position + cap, bound)
        close = np.where(full, times[batch_end - 1], deadlines)
        # Batches chain from each group's first arrival: the next batch
        # opens at the arrival that did not fit.  A group's last batch ends
        # at the group's end, where the next group's chain starts.
        end_of = batch_end.tolist()
        batch_starts: List[int] = []
        add_start = batch_starts.append
        start = 0
        while start < num_requests:
            add_start(start)
            start = end_of[start]

        starts = np.asarray(batch_starts, dtype=np.int64)
        ends = batch_end[starts]
        ready_seconds = close[starts]
        request_ids = arrays.request_ids
        first_ids = request_ids[order[starts]] if len(starts) else starts
        last_positions = order[ends - 1] if len(ends) else ends
        # A batch closed at its last member's arrival was closed by that
        # arrival; any other closed on its timer, strictly after its members.
        by_arrival = ready_seconds == arrivals[last_positions]
        tie_ids = np.where(by_arrival, request_ids[last_positions], first_ids)
        # Dispatch order: (ready, timers before arrivals, request id) — ids
        # are unique, so the sort is total.
        dispatch = np.lexsort((tie_ids, by_arrival, ready_seconds))
        starts, ends, ready_seconds = starts[dispatch], ends[dispatch], ready_seconds[dispatch]
        counts = ends - starts
        offsets = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        # Gather member positions batch-contiguously without a Python loop:
        # element j of batch b reads order[starts[b] + j].
        flat = np.arange(num_requests, dtype=np.int64)
        gather = np.repeat(starts - offsets[:-1], counts) + flat
        member_positions = order[gather]
        base_slot = workload_index[member_positions[offsets[:-1]]] if len(starts) else starts
        sizes_of_slot = np.asarray([w.batch_size for w in pool], dtype=np.int64)
        member_sizes = sizes_of_slot[workload_index[member_positions]]
        merged_sizes = (
            np.add.reduceat(member_sizes, offsets[:-1])
            if len(starts)
            else np.zeros(0, dtype=np.int64)
        )
        return BatchPlan(
            member_positions=member_positions,
            batch_offsets=offsets,
            ready_seconds=ready_seconds,
            base_slot=base_slot,
            merged_sizes=merged_sizes,
        )


@dataclass
class _OpenFairBatch:
    """One forming batch of the fair batcher (per compatibility key)."""

    members: List[InferenceRequest] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)
    deadline: float = 0.0


class TenantFairBatcher:
    """Weighted-fair (deficit round-robin) batch formation for one run.

    The plain size-or-timeout policy fills batches strictly first-come,
    first-served, so one heavy tenant's burst occupies every slot of every
    forming batch and a batch-compatible light tenant queues behind the
    whole burst.  The fair batcher bounds that: each tenant holds a *slot
    quantum* per batch — its weighted share of ``max_batch_size`` — backed
    by a per-tenant **deficit counter** that is granted one quantum every
    time a batch opens (capped at two quanta so idle tenants cannot hoard
    entitlement).  An arriving request joins the open batch only while its
    tenant has deficit credit; beyond that it waits in its tenant's
    FIFO spill queue.

    When a batch closes (size or timeout), spilled requests reseed the next
    batch by deficit round-robin over tenants in sorted-name order.  The
    reseed is **work-conserving**: if every spilling tenant has exhausted
    its credit and slots remain, the leftover slots are filled round-robin
    anyway — fairness shapes slot *allocation under contention*, it never
    idles capacity (a lone heavy tenant batches exactly as in FIFO mode).
    A reseeded batch that fills to the cap closes immediately at the same
    instant and cascades.

    Everything is event-local and deterministic, so the event loop drives
    one identical state machine on either backend.
    """

    def __init__(self, scheduler: BatchScheduler) -> None:
        if scheduler.tenant_weights is None:
            raise ValueError("TenantFairBatcher requires tenant_weights")
        self.cap = scheduler.max_batch_size
        self.wait = scheduler.max_wait_seconds
        self.weights = dict(scheduler.tenant_weights)
        self._total_weight = sum(self.weights.values()) or 1.0
        self._open: Dict[Hashable, _OpenFairBatch] = {}
        self._spill: Dict[Hashable, Dict[str, Deque[InferenceRequest]]] = {}
        self._deficit: Dict[Hashable, Dict[str, float]] = {}
        self._pending = 0

    # ------------------------------------------------------------- quanta
    def quantum(self, tenant: str) -> float:
        """Slot entitlement of ``tenant`` per batch (>= 1 slot)."""
        weight = self.weights.get(tenant, 1.0)
        return max(1.0, self.cap * weight / self._total_weight)

    @property
    def pending_count(self) -> int:
        """Requests waiting in open batches or spill queues."""
        return self._pending

    def open_members(self, key: Hashable) -> Optional[List[InferenceRequest]]:
        """Members of the forming batch for ``key`` (None when no batch)."""
        batch = self._open.get(key)
        return batch.members if batch is not None else None

    def can_join(self, key: Hashable, tenant: str) -> bool:
        """Whether a ``tenant`` arrival would join ``key``'s forming batch.

        False when the tenant's spill queue is non-empty, the batch is
        full, or the tenant's deficit credit is exhausted — exactly the
        conditions under which :meth:`add` would spill the request.  Used
        by batching-aware admission so a request headed for the spill
        queue is priced at its full standalone cost, not the marginal
        merged-batch increment it will not get.
        """
        batch = self._open.get(key)
        if batch is None or len(batch.members) >= self.cap:
            return False
        spill = self._spill.get(key)
        if spill is not None and spill.get(tenant):
            return False
        return self._credit(key, tenant) >= 1.0

    # ------------------------------------------------------------- events
    def _grant(self, key: Hashable) -> None:
        """Grant one quantum of deficit to every tenant known to ``key``."""
        deficits = self._deficit.setdefault(key, {})
        spill = self._spill.get(key, {})
        for tenant in set(deficits) | set(spill):
            quantum = self.quantum(tenant)
            if spill.get(tenant):
                deficits[tenant] = min(
                    deficits.get(tenant, 0.0) + quantum, 2.0 * quantum
                )
            else:
                deficits[tenant] = quantum

    def _credit(self, key: Hashable, tenant: str) -> float:
        deficits = self._deficit.setdefault(key, {})
        if tenant not in deficits:
            deficits[tenant] = self.quantum(tenant)
        return deficits[tenant]

    def add(self, request: InferenceRequest, now: float) -> List[RequestBatch]:
        """Feed one arrival; returns the batches it caused to close."""
        key = request.workload.batch_key
        batch = self._open.get(key)
        if batch is None:
            batch = _OpenFairBatch(deadline=now + self.wait)
            self._open[key] = batch
            self._grant(key)
        tenant = request.tenant
        spill = self._spill.setdefault(key, {})
        queue = spill.get(tenant)
        self._pending += 1
        if (
            (queue is None or not queue)
            and len(batch.members) < self.cap
            and self._credit(key, tenant) >= 1.0
        ):
            self._deficit[key][tenant] -= 1.0
            batch.members.append(request)
            batch.counts[tenant] = batch.counts.get(tenant, 0) + 1
            if len(batch.members) >= self.cap:
                return self._close(key, now)
            return []
        if queue is None:
            queue = deque()
            spill[tenant] = queue
        queue.append(request)
        return []

    def peek_deadline(self) -> Optional[Tuple[float, int, Hashable]]:
        """Earliest ``(deadline, first member id, key)`` among open batches."""
        best: Optional[Tuple[float, int, Hashable]] = None
        for key, batch in self._open.items():
            entry = (batch.deadline, batch.members[0].request_id, key)
            if best is None or entry[:2] < best[:2]:
                best = entry
        return best

    def fire_deadline(
        self, expiring: Optional[Tuple[float, int, Hashable]] = None
    ) -> List[RequestBatch]:
        """Close the batch whose deadline is earliest (cascading reseeds).

        Callers that already hold the :meth:`peek_deadline` result pass it
        in to skip a second scan over the open batches.
        """
        if expiring is None:
            expiring = self.peek_deadline()
        if expiring is None:
            raise ValueError("no open batch to expire")
        deadline, _, key = expiring
        return self._close(key, deadline)

    def _close(self, key: Hashable, ready: float) -> List[RequestBatch]:
        """Close the open batch for ``key`` at ``ready`` and reseed."""
        closed: List[RequestBatch] = []
        batch = self._open.pop(key)
        self._pending -= len(batch.members)
        closed.append(RequestBatch(requests=batch.members, ready_seconds=ready))
        spill = self._spill.get(key)
        while spill and any(spill.values()):
            reseed = _OpenFairBatch(deadline=ready + self.wait)
            self._open[key] = reseed
            self._grant(key)
            deficits = self._deficit[key]
            tenants = sorted(t for t, queue in spill.items() if queue)
            # Credit-respecting passes first, then work-conserving fill.
            for respect_credit in (True, False):
                progressed = True
                while progressed and len(reseed.members) < self.cap:
                    progressed = False
                    for tenant in tenants:
                        queue = spill.get(tenant)
                        if not queue or len(reseed.members) >= self.cap:
                            continue
                        if respect_credit and deficits.get(tenant, 0.0) < 1.0:
                            continue
                        if respect_credit:
                            deficits[tenant] -= 1.0
                        reseed.members.append(queue.popleft())
                        reseed.counts[tenant] = reseed.counts.get(tenant, 0) + 1
                        progressed = True
                if len(reseed.members) >= self.cap:
                    break
            if len(reseed.members) >= self.cap:
                self._open.pop(key)
                self._pending -= len(reseed.members)
                closed.append(RequestBatch(requests=reseed.members, ready_seconds=ready))
                continue
            # Partially reseeded batch stays open until its own deadline.
            break
        if not self._open.get(key):
            # No forming batch left: clear the key's bookkeeping so tenants
            # start from a fresh quantum next time traffic appears.
            self._open.pop(key, None)
            if spill is not None and not any(spill.values()):
                self._spill.pop(key, None)
                self._deficit.pop(key, None)
        return closed
