"""Deterministic fault injection and recovery for the serving stack.

Every shard in :class:`~repro.serving.cluster.ShardedServiceCluster` is
immortal by default.  This module makes failure a first-class simulated
event: a :class:`FaultSchedule` lists timestamped **crash**, **recover**
and **slowdown** events per shard, and the serving event loop consumes the
schedule through one shared :class:`FaultRuntime` on either backend, so
reports stay byte-identical across backends under every schedule.

Fault model
-----------
* ``crash`` removes a shard from the dispatchable set at its timestamp.
  A batch whose start on its pick would fall past that shard's next
  crash is **drained and migrated** to the next-best live candidate;
  when every live shard is doomed (or none is alive) the batch **parks**.
  Batches already in flight at the crash instant fail and each member is
  **retried with exponential backoff** (``retry_backoff_seconds * 2**k``
  for attempt ``k``) up to a per-request ``retry_budget``; requests that
  exhaust the budget are counted ``failed``, exactly once, so
  ``offered == served + shed + failed`` always holds.
* ``recover`` returns the shard at its timestamp (and clears any
  slowdown).
* ``slowdown`` multiplies the shard's service time by ``factor`` until
  the next slowdown or recover event.
* Under an autoscaler, a live standby past the active prefix substitutes
  for a crashed prefix shard.  Starting to substitute activates it, so it
  pays its activation warm-up first, exactly like a scale-up join.

Parked work is a FIFO.  A batch parks with its own ready time, and while
anything is parked :meth:`FaultRuntime.submit` appends a newly formed
batch to the tail without a dispatch attempt: the head parked because no
live shard could take it, and until the next fault event or scale-up the
live set is fixed and its busy horizons only grow, so the newcomer would
park too.  At every applied fault instant, and at a scale-up,
:meth:`FaultRuntime.flush` wakes the parked batches oldest first with
their ready time moved to the wake instant, and stops at the first one
that parks again — every batch behind it sees the same live set,
horizons and upcoming crashes.  Every dispatch therefore happens at the
event cursor (``ready == now``), so the live set the runtime dispatches
against is the live set at the batch's ready time.

``fault_aware=False`` models the pre-fault-tolerance stack as a
benchmark baseline: dispatch stays blind to liveness, a dead shard
fails its requests instantly without advancing its busy horizon (so
least-loaded dispatch keeps feeding the "idle-looking" dead shard —
the no-health-check death spiral), queued work dies with its shard at
a crash, and in-flight failures are terminal — no drain, no
migration, no retries.

The *voluntary* counterpart of the crash drain lives here too:
:class:`DrainPlanner` defers the loop's commit-at-dispatch so an
:class:`~repro.serving.control.Autoscaler` scale-down can hand a healthy
shard's planned-but-unstarted backlog to the survivors instead of
stranding it (see the class docstring).

Both drive the event loop's run (``_Run`` in
:mod:`repro.serving.cluster`) directly: they read its ``active_count`` and
``busy`` horizons, pick and serve through it, and end every successful
dispatch by moving the shard's horizon to the batch's finish and handing
the batch to ``run.place``, which plans it when a drain planner is
attached and commits it otherwise.

:class:`RandomFaults` generates reproducible schedules from a seed,
mirroring the arrival-generator idiom (`numpy` ``default_rng``).
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.serving.requests import InferenceRequest
from repro.serving.scheduler import RequestBatch
from repro.serving.topology import ClusterTopology
from repro.system.workload import check_count

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.serving.cluster import _Run
    from repro.serving.control import SLOPolicy

FAULT_CRASH = "crash"
FAULT_RECOVER = "recover"
FAULT_SLOWDOWN = "slowdown"

#: The recognised fault event kinds.
FAULT_KINDS = (FAULT_CRASH, FAULT_RECOVER, FAULT_SLOWDOWN)

FAULT_CRASH_DOMAIN = "crash_domain"
FAULT_RECOVER_DOMAIN = "recover_domain"

#: The recognised domain-level fault event kinds.
DOMAIN_FAULT_KINDS = (FAULT_CRASH_DOMAIN, FAULT_RECOVER_DOMAIN)

#: Outcomes of :meth:`FaultRuntime.dispatch`: the batch ran (or was killed
#: in flight) on its first pick, ran on another live shard because its
#: first pick was doomed, or found no live shard that could take it.
DISPATCH_PLACED = "placed"
DISPATCH_MOVED = "moved"
DISPATCH_PARKED = "parked"


def _check_finite(name: str, value: float, minimum: float, *, inclusive: bool = True) -> None:
    """Reject ``value`` unless it is a finite number ``>= minimum`` (``>``
    when not ``inclusive``).  NaN and infinities fail too: a schedule
    parameter ends up as an event time, a backoff or a duration factor."""
    low = value >= minimum if inclusive else value > minimum
    if not (math.isfinite(value) and low):
        bound = ">=" if inclusive else ">"
        raise ValueError(f"{name} must be a finite number {bound} {minimum}, got {value!r}")


@dataclass(frozen=True)
class FaultEvent:
    """One timestamped fault event targeting one shard."""

    seconds: float
    shard_id: int
    kind: str
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}")
        if not math.isfinite(self.seconds) or self.seconds < 0:
            raise ValueError(f"fault event time must be finite and >= 0, got {self.seconds!r}")
        if self.shard_id < 0:
            raise ValueError(f"fault event shard_id must be >= 0, got {self.shard_id}")
        _check_finite("fault event factor", self.factor, 1.0)

    def as_dict(self) -> dict:
        return {
            "seconds": self.seconds,
            "shard_id": self.shard_id,
            "kind": self.kind,
            "factor": self.factor,
        }


@dataclass(frozen=True)
class DomainFaultEvent:
    """One timestamped fault event taking a whole failure domain down or up.

    Domain events are *macros*: :class:`FaultSchedule` expands each into one
    per-shard :class:`FaultEvent` per member of the domain at the same
    instant, and the expanded stream is sorted by ``(seconds, shard_id)`` —
    order-stable tie-breaking, so two domains failing at the same moment
    apply in a deterministic shard order in both engines.
    """

    seconds: float
    domain: str
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in DOMAIN_FAULT_KINDS:
            raise ValueError(
                f"unknown domain fault kind {self.kind!r}; expected one of {DOMAIN_FAULT_KINDS}"
            )
        if not math.isfinite(self.seconds) or self.seconds < 0:
            raise ValueError(
                f"domain fault event time must be finite and >= 0, got {self.seconds!r}"
            )
        if not isinstance(self.domain, str) or not self.domain:
            raise ValueError(f"domain must be a non-empty string, got {self.domain!r}")

    def as_dict(self) -> dict:
        return {"seconds": self.seconds, "domain": self.domain, "kind": self.kind}


@dataclass(frozen=True)
class FaultSchedule:
    """A deterministic, validated sequence of fault events plus retry policy.

    Events are kept sorted by ``(seconds, shard_id)``.  Per shard the
    sequence must alternate sensibly — a crash requires the shard up, a
    recover requires it down, a slowdown requires it up — and two events
    may not target the same shard at the same instant (the outcome would
    be order-dependent).

    ``domain_events`` (which require a ``topology``) are correlated-outage
    macros: each ``crash_domain`` / ``recover_domain`` expands to one
    per-shard event per member of the domain at the same instant.  The
    expanded stream — merged with the independent ``events`` and sorted by
    ``(seconds, shard_id)`` for order-stable tie-breaking — is what the
    runtime consumes (:attr:`expanded_events`) and what the alternation
    validation runs over, so an independent event colliding with a domain
    outage is rejected up front rather than applied in ambiguous order.
    """

    events: Tuple[FaultEvent, ...] = ()
    retry_budget: int = 3
    retry_backoff_seconds: float = 0.05
    fault_aware: bool = True
    domain_events: Tuple[DomainFaultEvent, ...] = ()
    topology: Optional[ClusterTopology] = None

    def __post_init__(self) -> None:
        ordered_independent = tuple(
            sorted(self.events, key=lambda e: (e.seconds, e.shard_id))
        )
        object.__setattr__(self, "events", ordered_independent)
        domain_ordered = tuple(
            sorted(self.domain_events, key=lambda e: (e.seconds, e.domain))
        )
        object.__setattr__(self, "domain_events", domain_ordered)
        expanded: List[FaultEvent] = list(ordered_independent)
        if domain_ordered:
            if self.topology is None:
                raise ValueError(
                    "domain_events require a topology mapping shards to domains"
                )
            for domain_event in domain_ordered:
                kind = (
                    FAULT_CRASH
                    if domain_event.kind == FAULT_CRASH_DOMAIN
                    else FAULT_RECOVER
                )
                for shard_id in self.topology.shards_in(domain_event.domain):
                    expanded.append(FaultEvent(domain_event.seconds, shard_id, kind))
            expanded.sort(key=lambda e: (e.seconds, e.shard_id))
        ordered = tuple(expanded)
        # Kept off the dataclass fields so dataclasses.replace() re-expands
        # from (events, domain_events) instead of double-applying the macros.
        object.__setattr__(self, "_expanded", ordered)
        check_count("retry_budget", self.retry_budget, 0)
        _check_finite("retry_backoff_seconds", self.retry_backoff_seconds, 0.0, inclusive=False)
        down: Dict[int, bool] = {}
        last_at: Dict[int, float] = {}
        for event in ordered:
            shard = event.shard_id
            if last_at.get(shard) == event.seconds:
                raise ValueError(
                    f"two fault events target shard {shard} at t={event.seconds!r}; "
                    "their order would be ambiguous"
                )
            last_at[shard] = event.seconds
            if event.kind == FAULT_CRASH:
                if down.get(shard, False):
                    raise ValueError(f"shard {shard} crashes at t={event.seconds!r} while down")
                down[shard] = True
            elif event.kind == FAULT_RECOVER:
                if not down.get(shard, False):
                    raise ValueError(f"shard {shard} recovers at t={event.seconds!r} while up")
                down[shard] = False
            elif down.get(shard, False):
                raise ValueError(f"shard {shard} slows down at t={event.seconds!r} while down")

    @property
    def expanded_events(self) -> Tuple[FaultEvent, ...]:
        """Independent events merged with the expanded domain macros, sorted
        by ``(seconds, shard_id)`` — the stream the runtime consumes."""
        return self._expanded  # type: ignore[attr-defined]

    def validate_for(self, num_shards: int) -> None:
        """Raise unless every event targets a shard the cluster actually has."""
        if self.topology is not None:
            self.topology.validate_for(num_shards)
        for event in self.expanded_events:
            if event.shard_id >= num_shards:
                raise ValueError(
                    f"fault event targets shard {event.shard_id} but the cluster "
                    f"has only {num_shards} shards"
                )

    def as_dict(self) -> dict:
        return {
            "events": [event.as_dict() for event in self.events],
            "domain_events": [event.as_dict() for event in self.domain_events],
            "topology": self.topology.as_dict() if self.topology is not None else None,
            "retry_budget": self.retry_budget,
            "retry_backoff_seconds": self.retry_backoff_seconds,
            "fault_aware": self.fault_aware,
        }

    def runtime(
        self,
        num_shards: int,
        slo: Optional["SLOPolicy"] = None,
        *,
        order: Optional[Sequence[int]] = None,
        topology: Optional[ClusterTopology] = None,
        warmup: Optional[Sequence[float]] = None,
    ) -> "FaultRuntime":
        """Build the per-run mutable state for a cluster of ``num_shards``.

        ``order`` is the cluster's activation order (the identity when
        None); ``topology`` is the cluster's topology and enables
        healthy-domain-first standby substitution; ``warmup`` is the
        per-shard activation warm-up a standby pays when it substitutes
        (zero if None).
        """
        self.validate_for(num_shards)
        return FaultRuntime(
            self, num_shards, slo, order=order, topology=topology, warmup=warmup
        )


@dataclass(frozen=True)
class CorrelatedFaults:
    """Whole-domain outage process for :class:`RandomFaults(correlated=...)`.

    Each failure domain alternates exponentially distributed up and down
    periods — a rack power loss takes every member shard down at once —
    drawn from a *separate* seeded stream so enabling correlation leaves
    the independent per-shard fault stream bit-identical.
    """

    mean_uptime_seconds: float
    mean_downtime_seconds: float

    def __post_init__(self) -> None:
        _check_finite(
            "correlated mean_uptime_seconds", self.mean_uptime_seconds, 0.0, inclusive=False
        )
        _check_finite(
            "correlated mean_downtime_seconds", self.mean_downtime_seconds, 0.0, inclusive=False
        )

    def as_dict(self) -> dict:
        return {
            "mean_uptime_seconds": self.mean_uptime_seconds,
            "mean_downtime_seconds": self.mean_downtime_seconds,
        }


#: Stream key mixed with the seed for the domain-outage rng so correlated
#: outages never perturb the independent per-shard stream.
_DOMAIN_STREAM = 0xD0


@dataclass(frozen=True)
class RandomFaults:
    """Seeded crash/recover/slowdown generator (the arrival-generator idiom).

    Each shard alternates exponentially distributed up and down periods;
    crashes are generated while they fall inside ``horizon_seconds`` and
    every outage is closed by a recover event (possibly past the horizon)
    so no shard stays dead forever.  With probability
    ``slowdown_probability`` an up period also degrades to
    ``slowdown_factor`` at a uniform point before its crash.

    With ``correlated=`` (requires ``topology=``) whole failure domains
    additionally fail together: domain outages come from a second seeded
    stream, and independent shard outage cycles or slowdowns that would
    collide with a domain outage of the shard's own domain are dropped
    *without* consuming extra randomness — the surviving independent
    events are identical to the uncorrelated run's.
    """

    num_shards: int
    horizon_seconds: float
    mean_uptime_seconds: float
    mean_downtime_seconds: float
    slowdown_probability: float = 0.0
    slowdown_factor: float = 2.0
    retry_budget: int = 3
    retry_backoff_seconds: float = 0.05
    seed: int = 0
    topology: Optional[ClusterTopology] = None
    correlated: Optional[CorrelatedFaults] = None

    def __post_init__(self) -> None:
        check_count("num_shards", self.num_shards, 1)
        _check_finite("horizon_seconds", self.horizon_seconds, 0.0, inclusive=False)
        _check_finite("mean_uptime_seconds", self.mean_uptime_seconds, 0.0, inclusive=False)
        _check_finite("mean_downtime_seconds", self.mean_downtime_seconds, 0.0, inclusive=False)
        if not 0.0 <= self.slowdown_probability <= 1.0:
            raise ValueError(
                f"slowdown_probability must be in [0, 1], got {self.slowdown_probability!r}"
            )
        _check_finite("slowdown_factor", self.slowdown_factor, 1.0)
        check_count("retry_budget", self.retry_budget, 0)
        _check_finite("retry_backoff_seconds", self.retry_backoff_seconds, 0.0, inclusive=False)
        if self.correlated is not None and self.topology is None:
            raise ValueError("correlated faults require a topology")
        if self.topology is not None:
            self.topology.validate_for(self.num_shards)

    def schedule(self) -> FaultSchedule:
        """Generate the deterministic schedule for this configuration."""
        domain_events: List[DomainFaultEvent] = []
        blocked: List[List[Tuple[float, float]]] = [[] for _ in range(self.num_shards)]
        if self.correlated is not None:
            domain_rng = np.random.default_rng((self.seed, _DOMAIN_STREAM))
            for name in self.topology.domain_names:
                crash_at = float(
                    domain_rng.exponential(self.correlated.mean_uptime_seconds)
                )
                while crash_at < self.horizon_seconds:
                    recover_at = crash_at + float(
                        domain_rng.exponential(self.correlated.mean_downtime_seconds)
                    )
                    domain_events.append(
                        DomainFaultEvent(crash_at, name, FAULT_CRASH_DOMAIN)
                    )
                    domain_events.append(
                        DomainFaultEvent(recover_at, name, FAULT_RECOVER_DOMAIN)
                    )
                    for shard_id in self.topology.shards_in(name):
                        blocked[shard_id].append((crash_at, recover_at))
                    crash_at = recover_at + float(
                        domain_rng.exponential(self.correlated.mean_uptime_seconds)
                    )

        def collides(shard_id: int, lo: float, hi: float) -> bool:
            # Closed-interval overlap: touching a domain outage boundary is a
            # same-instant same-shard conflict once the macro expands.
            return any(lo <= b_hi and b_lo <= hi for b_lo, b_hi in blocked[shard_id])

        rng = np.random.default_rng(self.seed)
        events: List[FaultEvent] = []
        for shard_id in range(self.num_shards):
            up_start = 0.0
            crash_at = float(rng.exponential(self.mean_uptime_seconds))
            while crash_at < self.horizon_seconds:
                if self.slowdown_probability > 0.0 and rng.random() < self.slowdown_probability:
                    slow_at = up_start + float(rng.uniform(0.0, crash_at - up_start))
                    if up_start < slow_at < crash_at and not collides(
                        shard_id, slow_at, slow_at
                    ):
                        events.append(
                            FaultEvent(slow_at, shard_id, FAULT_SLOWDOWN, self.slowdown_factor)
                        )
                recover_at = crash_at + float(rng.exponential(self.mean_downtime_seconds))
                if not collides(shard_id, crash_at, recover_at):
                    events.append(FaultEvent(crash_at, shard_id, FAULT_CRASH))
                    events.append(FaultEvent(recover_at, shard_id, FAULT_RECOVER))
                up_start = recover_at
                crash_at = recover_at + float(rng.exponential(self.mean_uptime_seconds))
        return FaultSchedule(
            events=tuple(events),
            retry_budget=self.retry_budget,
            retry_backoff_seconds=self.retry_backoff_seconds,
            domain_events=tuple(domain_events),
            topology=self.topology,
        )

    def provenance(self) -> dict:
        """Every generation parameter, JSON-friendly — enough to rebuild this
        exact schedule from a bench artifact or chaos failure dump alone."""
        return {
            "generator": "RandomFaults",
            "seed": self.seed,
            "num_shards": self.num_shards,
            "horizon_seconds": self.horizon_seconds,
            "mean_uptime_seconds": self.mean_uptime_seconds,
            "mean_downtime_seconds": self.mean_downtime_seconds,
            "slowdown_probability": self.slowdown_probability,
            "slowdown_factor": self.slowdown_factor,
            "retry_budget": self.retry_budget,
            "retry_backoff_seconds": self.retry_backoff_seconds,
            "topology": self.topology.as_dict() if self.topology is not None else None,
            "correlated": (
                self.correlated.as_dict() if self.correlated is not None else None
            ),
        }


@dataclass(frozen=True)
class DomainOutageStats:
    """Per-failure-domain outage summary inside :class:`FaultStats`.

    ``windows`` are the whole-domain outage intervals — every member shard
    dead simultaneously — clipped to the observed run span.
    """

    domain: str
    shards: Tuple[int, ...]
    outages: int
    outage_seconds: float
    downtime_seconds: float
    windows: Tuple[Tuple[float, float], ...]

    def as_dict(self) -> dict:
        return {
            "domain": self.domain,
            "shards": list(self.shards),
            "outages": self.outages,
            "outage_seconds": self.outage_seconds,
            "downtime_seconds": self.downtime_seconds,
            "windows": [[lo, hi] for lo, hi in self.windows],
        }


@dataclass(frozen=True)
class FaultStats:
    """The faults section of a :class:`~repro.serving.cluster.ClusterReport`.

    ``migrated`` counts requests whose batch left its first-choice shard or
    parked to wait for capacity, once per batch: a parked batch that is
    woken, re-parks or leaves its pick on a later attempt is not counted
    again.  ``retried`` counts retry attempts (one per killed request per
    kill) and ``failed`` requests that ended without service.
    """

    migrated: int
    retried: int
    failed: int
    downtime_seconds: Tuple[float, ...]
    degraded_seconds: float
    served_degraded: int
    slo_met_degraded: int
    domains: Optional[Tuple[DomainOutageStats, ...]] = None

    @property
    def degraded_slo_attainment(self) -> float:
        """SLO attainment of requests completing inside degraded windows."""
        if self.served_degraded == 0:
            return 1.0
        return self.slo_met_degraded / self.served_degraded

    def as_dict(self) -> dict:
        return {
            "migrated": self.migrated,
            "retried": self.retried,
            "failed": self.failed,
            "downtime_seconds": list(self.downtime_seconds),
            "degraded_seconds": self.degraded_seconds,
            "served_degraded": self.served_degraded,
            "slo_met_degraded": self.slo_met_degraded,
            "degraded_slo_attainment": self.degraded_slo_attainment,
            "domains": (
                [stats.as_dict() for stats in self.domains]
                if self.domains is not None
                else None
            ),
        }


class DrainPlanner:
    """Deferred-commit dispatch plan enabling voluntary scale-down drains.

    The event loop normally commits a batch the moment it is dispatched:
    shard, start and finish are computed up front and the served record
    lands immediately (commit-at-dispatch).  That makes a *voluntary*
    scale-down impossible to honour — work already queued toward the
    drained shard is retroactively part of history.  When an
    :class:`~repro.serving.control.Autoscaler` runs with ``drain=True``
    the event loop routes every successful dispatch through this planner
    instead:

    * :meth:`plan` records the dispatch outcome, whose busy horizon the
      run has already advanced (so later picks see the queue), but
      **defers** the commit;
    * the loop fires :meth:`commit_next` as a first-class event at each
      entry's *start* time — once service begins the work is in flight
      and can no longer migrate;
    * on a scale-down the loop calls :meth:`drain`: planned-but-unstarted
      entries on the leaving shards are cancelled and their batches
      returned for re-dispatch among the survivors, in-flight service
      runs to completion, and each drained shard's busy horizon drops
      back to its *floor* — the finish of its last committed work, kept
      current by :meth:`raise_floor` when the fault runtime moves a
      horizon without a planned entry (recovery, in-flight kill).

    The run's ``place`` hands :meth:`plan` every successful dispatch,
    fault-free or through the fault runtime, on either backend.
    """

    def __init__(self, num_shards: int) -> None:
        self.num_shards = num_shards
        self._heap: List[Tuple[float, int]] = []  # (start_seconds, plan seq)
        self._entries: Dict[int, tuple] = {}
        self._queued: List[deque] = [deque() for _ in range(num_shards)]
        #: Per shard: ``(finish, member count)`` of its last commit, the only
        #: batch that can still be in flight (commits fire at batch starts,
        #: and no start precedes the shard's floor).
        self._inflight: List[Tuple[float, int]] = [(0.0, 0)] * num_shards
        self._seq = 0
        #: Per shard: the horizon a drain may not lower ``busy`` below.
        self.floor: List[float] = [0.0] * num_shards
        #: Requests planned but not yet committed (counts toward queue depth).
        self.planned = 0

    # ------------------------------------------------------------- planning
    def plan(
        self,
        batch: RequestBatch,
        shard_id: int,
        start: float,
        duration: float,
        report: object,
        finish: float,
    ) -> None:
        """Record a dispatch outcome whose commit is deferred to ``start``."""
        seq = self._seq
        self._seq += 1
        self._entries[seq] = (batch, shard_id, start, duration, report, finish)
        self._queued[shard_id].append(seq)
        heapq.heappush(self._heap, (start, seq))
        self.planned += len(batch.requests)

    # -------------------------------------------------------------- commits
    def next_commit_time(self) -> Optional[float]:
        """Start time of the earliest planned entry (None when drained)."""
        heap = self._heap
        while heap:
            start, seq = heap[0]
            if seq in self._entries:
                return start
            heapq.heappop(heap)  # cancelled by a drain; discard lazily
        return None

    def commit_next(self, run: "_Run") -> None:
        """Commit the earliest planned entry: its service begins now."""
        while True:
            _, seq = heapq.heappop(self._heap)
            entry = self._entries.pop(seq, None)
            if entry is not None:
                break
        batch, shard_id, start, duration, report, finish = entry
        queued = self._queued[shard_id]
        if queued and queued[0] == seq:
            # Per-shard starts are non-decreasing, so commits leave in
            # plan (FIFO) order; drains clear whole queues at once.
            queued.popleft()
        self.planned -= len(batch.requests)
        if finish > self.floor[shard_id]:
            self.floor[shard_id] = finish
        self._inflight[shard_id] = (finish, len(batch.requests))
        run.commit(batch, shard_id, start, duration, report, finish)

    # --------------------------------------------------------------- drains
    def raise_floor(self, shard_id: int, seconds: float) -> None:
        """Forbid drains from lowering the shard's horizon below ``seconds``."""
        if seconds > self.floor[shard_id]:
            self.floor[shard_id] = seconds

    def drain(
        self, leaving: Sequence[int], now: float, run: "_Run"
    ) -> Tuple[List[RequestBatch], int]:
        """Drain the ``leaving`` shards at a voluntary scale-down.

        Cancels every planned-but-unstarted entry on those shards and
        returns ``(batches, completed)``: the cancelled batches in plan
        order, ready for re-dispatch among the survivors, and the number
        of requests still in flight on the leaving shards (they run to
        completion).  Each drained shard's busy horizon drops back to its
        floor so reactivation — or standby substitution under faults —
        sees it idle instead of stuck behind migrated work.
        """
        batches: List[RequestBatch] = []
        completed = 0
        for shard_id in leaving:
            finish, count = self._inflight[shard_id]
            if finish > now:
                completed += count
            for seq in self._queued[shard_id]:
                entry = self._entries.pop(seq, None)
                if entry is None:
                    continue
                batches.append(entry[0])
                self.planned -= len(entry[0].requests)
            self._queued[shard_id].clear()
            run.set_busy(shard_id, self.floor[shard_id])
        return batches, completed


class FaultRuntime:
    """Per-run mutable fault state of one serving loop run.

    Tracks shard liveness and slowdown factors as events apply, owns the
    retry heap and the parked-batch FIFO, and performs every
    fault-sensitive dispatch through :meth:`dispatch`.  Built via
    :meth:`FaultSchedule.runtime`.
    """

    def __init__(
        self,
        schedule: FaultSchedule,
        num_shards: int,
        slo: Optional["SLOPolicy"] = None,
        *,
        order: Optional[Sequence[int]] = None,
        topology: Optional[ClusterTopology] = None,
        warmup: Optional[Sequence[float]] = None,
    ) -> None:
        self.schedule = schedule
        self.num_shards = num_shards
        self.slo = slo
        #: The cluster's activation order (the identity without a topology).
        self.order: Tuple[int, ...] = (
            tuple(order) if order is not None else tuple(range(num_shards))
        )
        if sorted(self.order) != list(range(num_shards)):
            raise ValueError(
                f"order must be a permutation of range({num_shards}), got {self.order}"
            )
        if (
            topology is not None
            and schedule.topology is not None
            and topology != schedule.topology
        ):
            raise ValueError(
                "the cluster's topology and the fault schedule's topology "
                "disagree; build both from the same ClusterTopology"
            )
        #: The cluster's topology, for healthy-domain standby preference (the
        #: schedule's own topology drives the per-domain stats).
        self.topology = topology
        if topology is not None:
            topology.validate_for(num_shards)
        if warmup is not None and len(warmup) != num_shards:
            raise ValueError(f"warmup needs one entry per shard ({num_shards})")
        #: Per-shard warm-up a standby pays when it starts substituting
        #: (None: every standby is already warm).
        self.warmup: Optional[Tuple[float, ...]] = (
            tuple(warmup) if warmup is not None and any(warmup) else None
        )
        self.alive = [True] * num_shards
        self.factor = [1.0] * num_shards
        self._events = list(schedule.expanded_events)
        self._cursor = 0
        #: Timestamp of the next unapplied fault event (None when exhausted);
        #: only :meth:`advance` moves it.
        self.next_fault: Optional[float] = self._events[0].seconds if self._events else None
        # Static views of the schedule: per-shard crash instants, per-shard
        # dead intervals and the merged cluster-degraded intervals (half-open,
        # an unclosed outage extends to +inf).
        self._crashes: List[List[float]] = [[] for _ in range(num_shards)]
        self._dead: List[List[Tuple[float, float]]] = [[] for _ in range(num_shards)]
        open_since: List[Optional[float]] = [None] * num_shards
        dead_count = 0
        degraded_open: Optional[float] = None
        self._degraded: List[Tuple[float, float]] = []
        for event in self._events:
            shard = event.shard_id
            if event.kind == FAULT_CRASH:
                self._crashes[shard].append(event.seconds)
                open_since[shard] = event.seconds
                dead_count += 1
                if dead_count == 1:
                    degraded_open = event.seconds
            elif event.kind == FAULT_RECOVER:
                self._dead[shard].append((open_since[shard], event.seconds))
                open_since[shard] = None
                dead_count -= 1
                if dead_count == 0:
                    self._degraded.append((degraded_open, event.seconds))
                    degraded_open = None
        for shard in range(num_shards):
            if open_since[shard] is not None:
                self._dead[shard].append((open_since[shard], math.inf))
        if degraded_open is not None:
            self._degraded.append((degraded_open, math.inf))
        self._degraded_starts = [lo for lo, _ in self._degraded]
        # Per-epoch tables: they change only when ``advance`` applies an
        # event.  ``_next_crash[s]`` is shard s's first unapplied crash, and
        # ``_live_sets`` memoizes ``active_alive`` per active count.
        self._crash_iters = [iter(crashes) for crashes in self._crashes]
        self._next_crash: List[Optional[float]] = [
            next(crashes, None) for crashes in self._crash_iters
        ]
        self._live_sets: Dict[int, List[int]] = {}
        #: Pending retries, a heap of ``(retry_at, seq, request)``: the event
        #: loop reads its head as the next retry time.
        self.retries: List[Tuple[float, int, InferenceRequest]] = []
        self._retry_seq = 0
        self._attempts: Dict[int, int] = {}
        #: Batches waiting for capacity, in the order they parked.
        self.parked: deque = deque()
        # Requests in ``parked``, kept so backlog_count() is O(1).
        self._parked_requests = 0
        self.migrated = 0
        self.retried = 0
        self.failed = 0
        self.served_degraded = 0
        self.slo_met_degraded = 0

    # ------------------------------------------------------ schedule queries
    def next_crash_after(self, shard_id: int, seconds: float) -> Optional[float]:
        """The shard's first crash strictly after ``seconds`` (None: never)."""
        crashes = self._crashes[shard_id]
        index = bisect_right(crashes, seconds)
        return crashes[index] if index < len(crashes) else None

    def dead_until(self, shard_id: int, seconds: float) -> Optional[float]:
        """The recover time of the outage covering ``seconds``, else None.

        Consults the static schedule, so it answers for any instant, not
        only the event cursor's.  The schedule alternates crash and recover
        per shard, so the dead intervals are disjoint and the i-th one
        starts at the i-th crash: only the last interval starting at or
        before ``seconds`` can cover it.
        """
        index = bisect_right(self._crashes[shard_id], seconds) - 1
        if index < 0:
            return None
        recover = self._dead[shard_id][index][1]
        return recover if seconds < recover else None

    def degraded_at(self, seconds: float) -> bool:
        """Whether at least one shard is down at ``seconds``."""
        index = bisect_right(self._degraded_starts, seconds) - 1
        return index >= 0 and seconds < self._degraded[index][1]

    # ------------------------------------------------------- dispatch planes
    def _domain_healthy(self, shard_id: int) -> bool:
        """Whether every shard in ``shard_id``'s failure domain is alive."""
        domain = self.topology.domain_of(shard_id)
        return all(self.alive[s] for s in self.topology.shards_in(domain))

    def active_alive(self, active_count: int) -> List[int]:
        """The dispatchable shard set (:meth:`live_set`), memoized per
        active count until :meth:`advance` applies the next event — the
        only place liveness changes.  Callers must not mutate it."""
        live = self._live_sets.get(active_count)
        if live is None:
            live = self.live_set(active_count)
            self._live_sets[active_count] = live
        return live

    def live_set(self, active_count: int) -> List[int]:
        """The dispatchable shard set: the autoscaler's target prefix minus
        dead shards, topped up with live standby shards past the prefix so
        crashed capacity is replaced while provisioned spares exist.

        The prefix is the activation order's first ``active_count`` shards.
        Under a topology the standby top-up prefers shards in *healthy*
        failure domains (every member alive) — replacing a rack's lost
        capacity inside the blast radius of the same failing rack is how a
        second correlated hit takes the substitutes down too.  Without
        fault awareness the set is the bare prefix.
        """
        prefix = self.order[:active_count]
        if not self.schedule.fault_aware:
            return list(prefix)
        active = [s for s in prefix if self.alive[s]]
        missing = active_count - len(active)
        if missing > 0:
            standby = [s for s in self.order[active_count:] if self.alive[s]]
            if self.topology is not None:
                standby.sort(key=lambda s: not self._domain_healthy(s))
            active.extend(standby[:missing])
        return active

    def backlog_count(self) -> int:
        """Requests the fault layer is holding (retry heap + parked batches)."""
        return len(self.retries) + self._parked_requests

    def pop_retry(self) -> Tuple[InferenceRequest, float]:
        retry_at, _seq, request = heapq.heappop(self.retries)
        return request, retry_at

    def advance(self, run: "_Run", until: float) -> None:
        """Apply every fault event due at or before ``until``, then flush."""
        changed = False
        serving = (
            set(self.active_alive(run.active_count))
            if self.warmup is not None
            else None
        )
        events = self._events
        while self._cursor < len(events) and events[self._cursor].seconds <= until:
            event = events[self._cursor]
            self._cursor += 1
            shard = event.shard_id
            if event.kind == FAULT_CRASH:
                self.alive[shard] = False
                self._next_crash[shard] = next(self._crash_iters[shard], None)
            elif event.kind == FAULT_RECOVER:
                self.alive[shard] = True
                self.factor[shard] = 1.0
                # A recovered shard rejoins idle no earlier than its revival.
                run.hold(shard, max(run.busy[shard], event.seconds))
            else:
                self.factor[shard] = event.factor
            changed = True
        self.next_fault = events[self._cursor].seconds if self._cursor < len(events) else None
        if changed:
            self._live_sets.clear()
            if serving is not None:
                self._warm_substitutes(run, serving, until)
            self.flush(run, until)

    def _warm_substitutes(self, run: "_Run", serving: set, now: float) -> None:
        """Charge activation warm-up to standbys that start substituting.

        A standby outside the autoscaler's prefix that enters the
        dispatchable set at ``now`` is being activated, exactly like a
        scale-up join, so it takes work no earlier than ``now`` plus its
        warm-up (an AutoGNN shard first programs its bitstream).  A
        recovered prefix shard rejoins under the recover rule instead.
        """
        count = run.active_count
        prefix = self.order[:count]
        for shard in self.active_alive(count):
            if shard in serving or shard in prefix:
                continue
            run.hold(shard, max(run.busy[shard], now + self.warmup[shard]))

    def flush(self, run: "_Run", now: float) -> None:
        """Wake parked batches at ``now``, oldest first, until one re-parks.

        Each woken batch is re-dispatched with its ready time moved to
        ``now``, in place: nothing reads a parked batch's earlier ready
        time.  The first one that parks again stays at the head and the
        rest are not tried: they would meet the same live set, busy
        horizons and upcoming crashes, and park too.
        """
        parked = self.parked
        while parked:
            head = parked[0]
            head.ready_seconds = now
            if self.dispatch(head, run) == DISPATCH_PARKED:
                return
            parked.popleft()
            self._parked_requests -= len(head.requests)

    def submit(self, batch: RequestBatch, run: "_Run") -> None:
        """Hand a newly formed batch, ready at the event cursor, to the runtime.

        While work is parked the batch joins the FIFO's tail without a
        dispatch attempt: it would park too (see the module docstring).
        Otherwise it is dispatched, and parks at the tail if no live shard
        can take it.  A batch that parks or leaves its first pick counts as
        migrated, here and only here.
        """
        outcome = DISPATCH_PARKED if self.parked else self.dispatch(batch, run)
        if outcome == DISPATCH_PARKED:
            self.parked.append(batch)
            self._parked_requests += len(batch.requests)
        if outcome != DISPATCH_PLACED:
            self.migrated += len(batch.requests)

    def dispatch(self, batch: RequestBatch, run: "_Run") -> str:
        """Dispatch ``batch`` with full fault semantics (migrate / in-flight
        failure / place) and return the outcome.

        ``batch`` is ready at the event cursor, so the current live set is
        the live set at its ready time, and — fault events firing before
        deadlines, retries and arrivals at ties — every fault event due by
        then has been applied: a shard's first unapplied crash is its first
        crash after the ready time.  On :data:`DISPATCH_PARKED` no live
        shard could take it and the caller queues it: :meth:`submit` at the
        FIFO's tail, :meth:`flush` back at its head.
        """
        active = self.active_alive(run.active_count)
        if not self.schedule.fault_aware:
            self._dispatch_oblivious(batch, run, active)
            return DISPATCH_PLACED
        if not active:
            return DISPATCH_PARKED
        workload = run.merged(batch)
        # A shard whose queue extends past its own next crash would sit the
        # batch behind doomed work; drain to another live candidate instead,
        # and park only when every live shard is doomed.
        ready = batch.ready_seconds
        busy = run.busy
        next_crash = self._next_crash
        outcome = DISPATCH_PLACED
        if run.least_loaded:
            # Re-picking least-loaded among the undoomed candidates is one
            # pass: the (busy, id) minimum of the live set is the first
            # pick, and the (busy, id) minimum of its undoomed members is
            # where the batch runs.  A shard id no live shard has starts
            # both minima, so an infinite horizon still orders by id.
            first = shard_id = self.num_shards
            first_busy = best_busy = math.inf
            for s in active:
                b = busy[s]
                if b < first_busy or (b == first_busy and s < first):
                    first_busy, first = b, s
                if b < best_busy or (b == best_busy and s < shard_id):
                    crash_at = next_crash[s]
                    if crash_at is None or crash_at > (ready if ready >= b else b):
                        best_busy, shard_id = b, s
            if shard_id == self.num_shards:
                return DISPATCH_PARKED
            if shard_id != first:
                outcome = DISPATCH_MOVED
            start = ready if ready >= best_busy else best_busy
            crash_at = next_crash[shard_id]
        else:
            candidates = active
            while True:
                shard_id = run.pick_among(batch, candidates)
                start = max(ready, busy[shard_id])
                crash_at = next_crash[shard_id]
                if crash_at is None or crash_at > start:
                    break
                outcome = DISPATCH_MOVED
                candidates = [s for s in candidates if s != shard_id]
                if not candidates:
                    return DISPATCH_PARKED
        self._serve_on(batch, run, workload, shard_id, start, crash_at)
        return outcome

    def _dispatch_oblivious(
        self, batch: RequestBatch, run: "_Run", active: List[int]
    ) -> None:
        """The fault-oblivious baseline: dispatch is blind to liveness.

        A dead shard fails requests instantly (connection refused) without
        advancing its busy horizon — so to least-loaded dispatch it looks
        *idle* and keeps attracting traffic for the whole outage, the
        classic no-health-check death spiral.  Work already sitting in a
        shard's queue when the crash hits dies with the shard, and in-flight
        failures are terminal: nothing migrates, nothing retries.
        """
        workload = run.merged(batch)
        shard_id = run.pick_among(batch, active)
        if not self.alive[shard_id]:
            # Fail fast: the dead shard's horizon stays frozen, so dispatch
            # never learns to route around it.
            for request in batch.requests:
                self._fail(request, batch.ready_seconds, run)
            return
        start = max(batch.ready_seconds, run.busy[shard_id])
        crash_at = self._next_crash[shard_id]
        if crash_at is not None and crash_at <= start:
            # The batch sat in the shard's queue when the crash hit: the
            # queue dies with the shard and nothing resubmits the work.
            for request in batch.requests:
                self._fail(request, crash_at, run)
            return
        self._serve_on(batch, run, workload, shard_id, start, crash_at)

    def _serve_on(
        self,
        batch: RequestBatch,
        run: "_Run",
        workload: object,
        shard_id: int,
        start: float,
        crash_at: Optional[float],
    ) -> None:
        """Serve ``batch`` on its pick at its current slowdown factor.

        A crash before the finish kills the pass in flight: the shard's
        horizon stops at the crash and each member retries with
        exponential backoff until its budget runs out (fault-oblivious
        runs never retry).  Otherwise the run places the batch.
        """
        report, duration = run.serve(shard_id, workload)
        duration = duration * self.factor[shard_id]
        finish = start + duration
        if crash_at is not None and crash_at < finish:
            run.hold(shard_id, crash_at)
            run.busy_total[shard_id] += crash_at - start
            for request in batch.requests:
                self._retry_or_fail(request, crash_at, run)
            return
        run.set_busy(shard_id, finish)
        run.place(batch, shard_id, start, duration, report, finish)

    def _retry_or_fail(self, request: InferenceRequest, seconds: float, run: "_Run") -> None:
        attempt = self._attempts.get(request.request_id, 0)
        if self.schedule.fault_aware and attempt < self.schedule.retry_budget:
            self._attempts[request.request_id] = attempt + 1
            self.retried += 1
            retry_at = seconds + self.schedule.retry_backoff_seconds * (2.0 ** attempt)
            heapq.heappush(self.retries, (retry_at, self._retry_seq, request))
            self._retry_seq += 1
        else:
            self._fail(request, seconds, run)

    def _fail(self, request: InferenceRequest, seconds: float, run: "_Run") -> None:
        self.failed += 1
        run.on_failed(request, seconds)

    def note_commit(
        self, batch: RequestBatch, start: float, duration: float, finish: float
    ) -> None:
        """Count a committed batch's requests that finish in a degraded window
        (the reference backend's per-commit count; see :meth:`note_batches`)."""
        if not self.degraded_at(finish):
            return
        for request in batch.requests:
            self.served_degraded += 1
            sojourn = (
                (batch.ready_seconds - request.arrival_seconds)
                + (start - batch.ready_seconds)
                + duration
            )
            if self.slo is None or sojourn <= self.slo.slo_for(request.workload, request.tenant):
                self.slo_met_degraded += 1

    def note_batches(self, finish: np.ndarray, counts: np.ndarray, met: np.ndarray) -> None:
        """:meth:`note_commit` over a whole run's committed batches at once.

        ``finish`` and ``counts`` are per batch, ``met`` (each request's SLO
        verdict, all true without an SLO) per request in commit order.  The
        window test is :meth:`degraded_at`'s, elementwise.
        """
        if not self._degraded:
            return
        ends = np.array([hi for _, hi in self._degraded])
        index = np.searchsorted(self._degraded_starts, finish, side="right") - 1
        inside = (index >= 0) & (finish < ends[np.maximum(index, 0)])
        per_request = np.repeat(inside, counts)
        self.served_degraded += int(np.count_nonzero(per_request))
        self.slo_met_degraded += int(np.count_nonzero(per_request & met))

    # -------------------------------------------------------------- summary
    def finalize(self, first_arrival: Optional[float], last_finish: float) -> FaultStats:
        """Fail whatever is still parked and summarise the run's fault story.

        Downtime and degraded windows are clipped to the observed run span
        ``[first_arrival, last_finish]`` so an outage scheduled past the end
        of traffic does not inflate the stats.
        """
        self.failed += self._parked_requests
        self.parked.clear()
        self._parked_requests = 0
        start = first_arrival if first_arrival is not None else 0.0
        end = max(last_finish, start)

        def clipped(lo: float, hi: float) -> float:
            return max(0.0, min(hi, end) - max(lo, start))

        downtime = tuple(
            sum(clipped(lo, hi) for lo, hi in self._dead[shard])
            for shard in range(self.num_shards)
        )
        degraded = sum(clipped(lo, hi) for lo, hi in self._degraded)
        domains: Optional[Tuple[DomainOutageStats, ...]] = None
        topology = self.schedule.topology
        if topology is not None:
            per_domain: List[DomainOutageStats] = []
            for name in topology.domain_names:
                members = topology.shards_in(name)
                windows = []
                for lo, hi in self._full_outage_windows(members):
                    lo_c, hi_c = max(lo, start), min(hi, end)
                    if hi_c > lo_c:
                        windows.append((lo_c, hi_c))
                per_domain.append(
                    DomainOutageStats(
                        domain=name,
                        shards=members,
                        outages=len(windows),
                        outage_seconds=sum(hi - lo for lo, hi in windows),
                        downtime_seconds=sum(downtime[s] for s in members),
                        windows=tuple(windows),
                    )
                )
            domains = tuple(per_domain)
        return FaultStats(
            migrated=self.migrated,
            retried=self.retried,
            failed=self.failed,
            downtime_seconds=downtime,
            degraded_seconds=degraded,
            served_degraded=self.served_degraded,
            slo_met_degraded=self.slo_met_degraded,
            domains=domains,
        )

    def _full_outage_windows(self, members: Sequence[int]) -> List[Tuple[float, float]]:
        """Intervals where every shard in ``members`` is dead simultaneously.

        Sweep over the members' dead intervals; a ``-1`` (recover) at the
        same instant as a ``+1`` (crash) applies first, matching the
        half-open interval semantics — the recovering shard is alive at the
        boundary, so the domain is not fully down there.
        """
        transitions: List[Tuple[float, int]] = []
        for shard in members:
            for lo, hi in self._dead[shard]:
                transitions.append((lo, 1))
                transitions.append((hi, -1))
        transitions.sort(key=lambda t: (t[0], t[1]))
        windows: List[Tuple[float, float]] = []
        count = 0
        open_at: Optional[float] = None
        for when, delta in transitions:
            count += delta
            if count == len(members) and open_at is None:
                open_at = when
            elif count < len(members) and open_at is not None:
                windows.append((open_at, when))
                open_at = None
        if open_at is not None:
            windows.append((open_at, math.inf))
        return windows
