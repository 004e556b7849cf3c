"""Deterministic fault injection and recovery for the serving stack.

Every shard in :class:`~repro.serving.cluster.ShardedServiceCluster` is
immortal by default.  This module makes failure a first-class simulated
event: a :class:`FaultSchedule` lists timestamped **crash**, **recover**
and **slowdown** events per shard, and the serving loops consume the
schedule through one shared :class:`FaultRuntime` on either backend, so
reports stay byte-identical across backends under every schedule.

Fault model
-----------
* ``crash`` removes a shard from the dispatchable set at its timestamp.
  Queued batches whose start would fall past the crash are **drained and
  migrated**: re-dispatched through the cluster's normal dispatch policy
  once the crash takes effect (the surviving set is only known then).
  Batches already in flight at the crash instant fail and each member is
  **retried with exponential backoff** (``retry_backoff_seconds * 2**k``
  for attempt ``k``) up to a per-request ``retry_budget``; requests that
  exhaust the budget are counted ``failed``, exactly once, so
  ``offered == served + shed + failed`` always holds.
* ``recover`` returns the shard at its timestamp (and clears any
  slowdown).  Parked work re-dispatches immediately.
* ``slowdown`` multiplies the shard's service time by ``factor`` until
  the next slowdown or recover event.

``fault_aware=False`` models the pre-fault-tolerance stack as a
benchmark baseline: dispatch stays blind to liveness, a dead shard
fails its requests instantly without advancing its busy horizon (so
least-loaded dispatch keeps feeding the "idle-looking" dead shard —
the no-health-check death spiral), queued work dies with its shard at
a crash, and in-flight failures are terminal — no drain, no
migration, no retries.

The *voluntary* counterpart of the crash drain lives here too:
:class:`DrainPlanner` defers the loops' commit-at-dispatch so an
:class:`~repro.serving.control.Autoscaler` scale-down can hand a healthy
shard's planned-but-unstarted backlog to the survivors instead of
stranding it (see the class docstring).  The online loop drives it
through the same :class:`FaultLoopHooks`, exactly like the fault runtime.

:class:`RandomFaults` generates reproducible schedules from a seed,
mirroring the arrival-generator idiom (`numpy` ``default_rng``).
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.serving.requests import InferenceRequest
from repro.serving.scheduler import RequestBatch
from repro.serving.topology import ClusterTopology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
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


def due(when: Optional[float], *others: Optional[float]) -> bool:
    """True when ``when`` is scheduled and no later than every other horizon.

    The online loop ranks its event sources (commit, fault, batch
    deadline, retry, arrival) with this one predicate: a source fires
    when it is due and every source ranked after it is either exhausted
    or no earlier.
    """
    if when is None:
        return False
    return all(other is None or when <= other for other in others)


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
        if self.kind == FAULT_SLOWDOWN and self.factor < 1.0:
            raise ValueError(f"slowdown factor must be >= 1.0, got {self.factor!r}")

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
        if self.retry_budget < 0:
            raise ValueError(f"retry_budget must be >= 0, got {self.retry_budget}")
        if self.retry_backoff_seconds <= 0:
            raise ValueError(
                f"retry_backoff_seconds must be > 0, got {self.retry_backoff_seconds!r}"
            )
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
    ) -> "FaultRuntime":
        """Build the per-run mutable state for a cluster of ``num_shards``.

        ``order`` is the cluster's activation order (domain-spread placement);
        ``topology`` enables healthy-domain-first standby substitution and
        defaults to the schedule's own topology.
        """
        self.validate_for(num_shards)
        return FaultRuntime(self, num_shards, slo, order=order, topology=topology)


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
        if self.mean_uptime_seconds <= 0 or self.mean_downtime_seconds <= 0:
            raise ValueError("correlated mean uptime/downtime must be > 0")

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
        if self.num_shards <= 0:
            raise ValueError(f"num_shards must be > 0, got {self.num_shards}")
        if self.horizon_seconds <= 0:
            raise ValueError(f"horizon_seconds must be > 0, got {self.horizon_seconds!r}")
        if self.mean_uptime_seconds <= 0 or self.mean_downtime_seconds <= 0:
            raise ValueError("mean uptime/downtime must be > 0")
        if not 0.0 <= self.slowdown_probability <= 1.0:
            raise ValueError(
                f"slowdown_probability must be in [0, 1], got {self.slowdown_probability!r}"
            )
        if self.slowdown_factor < 1.0:
            raise ValueError(f"slowdown_factor must be >= 1.0, got {self.slowdown_factor!r}")
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
class DomainOutageEvent:
    """One row of the per-domain outage timeline.

    Shaped for :func:`repro.analysis.report.format_timeline`: ``seconds`` /
    ``active_shards`` (alive members of the domain after the transition) /
    ``reason``.
    """

    seconds: float
    active_shards: int
    reason: str


@dataclass(frozen=True)
class FaultStats:
    """The faults section of a :class:`~repro.serving.cluster.ClusterReport`."""

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

    def domain_timeline(self) -> List[DomainOutageEvent]:
        """Whole-domain outage transitions, ready for ``format_timeline``."""
        rows: List[DomainOutageEvent] = []
        for stats in self.domains or ():
            for lo, hi in stats.windows:
                rows.append(DomainOutageEvent(lo, 0, f"domain-down:{stats.domain}"))
                rows.append(
                    DomainOutageEvent(hi, len(stats.shards), f"domain-up:{stats.domain}")
                )
        rows.sort(key=lambda row: (row.seconds, row.reason))
        return rows

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


class FaultLoopHooks:
    """How a serving loop exposes its mutable state to the fault runtime.

    The loops drive :class:`FaultRuntime` and :class:`DrainPlanner`
    through this bundle of callbacks: the runtime owns every fault
    decision, the hooks only read/write the run's state (busy horizons,
    served records, arrival sources) through the backend in use.
    """

    __slots__ = (
        "active_count",
        "busy",
        "set_busy",
        "add_busy",
        "merged",
        "pick",
        "serve",
        "commit",
        "on_failed",
        "active_ids",
    )

    def __init__(
        self,
        *,
        active_count: Callable[[], int],
        busy: Callable[[int], float],
        set_busy: Callable[[int, float], None],
        add_busy: Callable[[int, float], None],
        merged: Callable[[RequestBatch], object],
        pick: Callable[[RequestBatch, object, Sequence[int]], int],
        serve: Callable[[int, object], Tuple[object, float]],
        commit: Callable[[RequestBatch, int, float, float, object, float], None],
        on_failed: Callable[[InferenceRequest, float], None],
        active_ids: Optional[Callable[[], Sequence[int]]] = None,
    ) -> None:
        self.active_count = active_count
        self.busy = busy
        self.set_busy = set_busy
        self.add_busy = add_busy
        self.merged = merged
        self.pick = pick
        self.serve = serve
        self.commit = commit
        self.on_failed = on_failed
        #: Optional explicit active shard ids (the cluster's activation-order
        #: prefix under domain-spread placement); None keeps the historical
        #: ``range(active_count())`` prefix.
        self.active_ids = active_ids


class DrainPlanner:
    """Deferred-commit dispatch plan enabling voluntary scale-down drains.

    The serving loops normally commit a batch the moment it is dispatched:
    shard, start and finish are computed up front and the served record
    lands immediately (commit-at-dispatch).  That makes a *voluntary*
    scale-down impossible to honour — work already queued toward the
    drained shard is retroactively part of history.  When an
    :class:`~repro.serving.control.Autoscaler` runs with ``drain=True``
    the online loops route every successful dispatch through this planner
    instead:

    * :meth:`plan` records the dispatch outcome and advances the shard's
      busy horizon (so later picks see the queue) but **defers** the
      commit;
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

    The online loop drives the planner through the same
    :class:`FaultLoopHooks` as the fault runtime, on either backend.
    """

    def __init__(self, num_shards: int) -> None:
        self.num_shards = num_shards
        self._heap: List[Tuple[float, int]] = []  # (start_seconds, plan seq)
        self._entries: Dict[int, tuple] = {}
        self._queued: List[deque] = [deque() for _ in range(num_shards)]
        self._inflight: List[deque] = [deque() for _ in range(num_shards)]
        self._seq = 0
        #: Per shard: the horizon a drain may not lower ``busy`` below.
        self.floor: List[float] = [0.0] * num_shards
        #: Requests planned but not yet committed (counts toward queue depth).
        self.planned = 0
        #: Loop hook fired at plan time (the loops clear their
        #: pending-admission estimates here, not at commit, so the planned
        #: work is not double-counted against the busy horizon).
        self.on_planned: Optional[Callable[[RequestBatch], None]] = None
        #: Degraded-window accounting hook (wired to the fault runtime's
        #: ``_note_degraded`` by :meth:`FaultRuntime.attach_planner`).
        self.note_degraded: Optional[Callable[[RequestBatch, float, float, float], None]] = None

    # ------------------------------------------------------------- planning
    def dispatch(self, batch: RequestBatch, env: FaultLoopHooks) -> None:
        """The fault-free dispatch path: pick, price, plan.

        The drain-aware counterpart of the loop's commit-at-dispatch:
        the same pick/serve sequence, with the commit deferred.
        """
        if env.active_ids is not None:
            active: Sequence[int] = env.active_ids()
        else:
            active = range(env.active_count())
        workload = env.merged(batch)
        shard_id = env.pick(batch, workload, active)
        start = max(batch.ready_seconds, env.busy(shard_id))
        report, duration = env.serve(shard_id, workload)
        finish = start + duration
        env.set_busy(shard_id, finish)
        self.plan(batch, shard_id, start, duration, report, finish)

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
        if self.on_planned is not None:
            self.on_planned(batch)

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

    def commit_next(self, env: FaultLoopHooks) -> None:
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
        self._inflight[shard_id].append((finish, len(batch.requests)))
        env.add_busy(shard_id, duration)
        env.commit(batch, shard_id, start, duration, report, finish)
        if self.note_degraded is not None:
            self.note_degraded(batch, start, duration, finish)

    # --------------------------------------------------------------- drains
    def raise_floor(self, shard_id: int, seconds: float) -> None:
        """Forbid drains from lowering the shard's horizon below ``seconds``."""
        if seconds > self.floor[shard_id]:
            self.floor[shard_id] = seconds

    def drain(
        self, leaving: Sequence[int], now: float, env: FaultLoopHooks
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
            inflight = self._inflight[shard_id]
            while inflight and inflight[0][0] <= now:
                inflight.popleft()
            completed += sum(count for _, count in inflight)
            for seq in self._queued[shard_id]:
                entry = self._entries.pop(seq, None)
                if entry is None:
                    continue
                batches.append(entry[0])
                self.planned -= len(entry[0].requests)
            self._queued[shard_id].clear()
            env.set_busy(shard_id, self.floor[shard_id])
        return batches, completed


class FaultRuntime:
    """Per-run mutable fault state of one serving loop run.

    Tracks shard liveness and slowdown factors as events apply, owns the
    retry heap and the parked-batch list, and performs every
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
    ) -> None:
        self.schedule = schedule
        self.num_shards = num_shards
        self.slo = slo
        #: Activation order under domain-spread placement; None = identity.
        self.order: Optional[Tuple[int, ...]] = tuple(order) if order is not None else None
        if self.order is not None and sorted(self.order) != list(range(num_shards)):
            raise ValueError(
                f"order must be a permutation of range({num_shards}), got {self.order}"
            )
        #: Topology used for healthy-domain standby preference (falls back to
        #: the schedule's own topology, which also drives per-domain stats).
        if (
            topology is not None
            and schedule.topology is not None
            and topology != schedule.topology
        ):
            raise ValueError(
                "the cluster's topology and the fault schedule's topology "
                "disagree; build both from the same ClusterTopology"
            )
        self._placement_topology = topology if topology is not None else schedule.topology
        if self._placement_topology is not None:
            self._placement_topology.validate_for(num_shards)
        self.alive = [True] * num_shards
        self.factor = [1.0] * num_shards
        self._events = list(schedule.expanded_events)
        self._cursor = 0
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
        self._retries: List[Tuple[float, int, InferenceRequest]] = []
        self._retry_seq = 0
        self._attempts: Dict[int, int] = {}
        self.parked: List[RequestBatch] = []
        self.migrated = 0
        self.retried = 0
        self.failed = 0
        self.served_degraded = 0
        self.slo_met_degraded = 0
        #: Optional deferred-commit planner (voluntary scale-down drains).
        self.planner: Optional[DrainPlanner] = None

    def attach_planner(self, planner: DrainPlanner) -> None:
        """Route successful dispatches through a deferred-commit planner.

        Planned entries never straddle a crash (a successful dispatch
        already proved no crash lands before its finish), so the planner
        only has to learn about the horizons the runtime moves *without*
        planning — recovery rejoins and in-flight kills — via
        :meth:`DrainPlanner.raise_floor`.
        """
        self.planner = planner
        planner.note_degraded = self._note_degraded

    # ------------------------------------------------------ schedule queries
    def next_fault_time(self) -> Optional[float]:
        """Timestamp of the next unapplied fault event (None when exhausted)."""
        if self._cursor >= len(self._events):
            return None
        return self._events[self._cursor].seconds

    def next_crash_after(self, shard_id: int, seconds: float) -> Optional[float]:
        """The shard's first crash strictly after ``seconds`` (None: never)."""
        crashes = self._crashes[shard_id]
        index = bisect_right(crashes, seconds)
        return crashes[index] if index < len(crashes) else None

    def dead_until(self, shard_id: int, seconds: float) -> Optional[float]:
        """The recover time of the outage covering ``seconds``, else None.

        Consults the *static* schedule, not the event cursor: a parked batch
        re-dispatched by :meth:`flush` carries a ready time in the cursor's
        future, and a shard that looks alive *now* may be scheduled dead
        across that future start.

        The schedule alternates crash and recover per shard, so the dead
        intervals are disjoint and the i-th one starts at the i-th crash:
        only the last interval starting at or before ``seconds`` can cover it.
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
        domain = self._placement_topology.domain_of(shard_id)
        return all(self.alive[s] for s in self._placement_topology.shards_in(domain))

    def active_alive(self, active_count: int) -> List[int]:
        """The dispatchable shard set: the autoscaler's target prefix minus
        dead shards, topped up with live standby shards past the prefix so
        crashed capacity is replaced while provisioned spares exist.

        With an activation ``order`` the prefix is the order's first
        ``active_count`` shards, and the standby top-up prefers shards in
        *healthy* failure domains (every member alive) — replacing a rack's
        lost capacity inside the blast radius of the same failing rack is
        how a second correlated hit takes the substitutes down too.
        """
        if not self.schedule.fault_aware:
            if self.order is not None:
                return list(self.order[:active_count])
            return list(range(active_count))
        if self.order is None:
            active = [s for s in range(active_count) if self.alive[s]]
            missing = active_count - len(active)
            for shard in range(active_count, self.num_shards):
                if missing == 0:
                    break
                if self.alive[shard]:
                    active.append(shard)
                    missing -= 1
            return active
        active = [s for s in self.order[:active_count] if self.alive[s]]
        missing = active_count - len(active)
        if missing > 0:
            standby = [s for s in self.order[active_count:] if self.alive[s]]
            if self._placement_topology is not None:
                standby.sort(key=lambda s: not self._domain_healthy(s))
            for shard in standby:
                if missing == 0:
                    break
                active.append(shard)
                missing -= 1
        return active

    def backlog_count(self) -> int:
        """Requests the fault layer is holding (retry heap + parked batches)."""
        return len(self._retries) + sum(len(b.requests) for b in self.parked)

    def next_retry_time(self) -> Optional[float]:
        return self._retries[0][0] if self._retries else None

    def pop_retry(self) -> Tuple[InferenceRequest, float]:
        retry_at, _seq, request = heapq.heappop(self._retries)
        return request, retry_at

    def advance(self, env: FaultLoopHooks, until: float) -> None:
        """Apply every fault event due at or before ``until``, then flush."""
        changed = False
        while self._cursor < len(self._events) and self._events[self._cursor].seconds <= until:
            event = self._events[self._cursor]
            self._cursor += 1
            shard = event.shard_id
            if event.kind == FAULT_CRASH:
                self.alive[shard] = False
            elif event.kind == FAULT_RECOVER:
                self.alive[shard] = True
                self.factor[shard] = 1.0
                # A recovered shard rejoins idle no earlier than its revival.
                rejoin = max(env.busy(shard), event.seconds)
                env.set_busy(shard, rejoin)
                if self.planner is not None:
                    self.planner.raise_floor(shard, rejoin)
            else:
                self.factor[shard] = event.factor
            changed = True
        if changed:
            self.flush(env)

    def flush(self, env: FaultLoopHooks) -> None:
        """Re-dispatch parked batches now that capacity may be back."""
        if not self.parked or not self.active_alive(env.active_count()):
            return
        pending, self.parked = self.parked, []
        for batch in pending:
            self.dispatch(batch, env)

    def dispatch(self, batch: RequestBatch, env: FaultLoopHooks) -> None:
        """Dispatch ``batch`` with full fault semantics (park / migrate /
        in-flight failure / commit)."""
        if not self.schedule.fault_aware:
            self._dispatch_oblivious(batch, env)
            return
        active = self.active_alive(env.active_count())
        if not active:
            self.parked.append(batch)
            return
        workload = env.merged(batch)
        # A shard whose queue extends past its own next crash would sit the
        # batch behind doomed work; drain to another live candidate instead,
        # and only park (until the earliest of those crashes takes effect)
        # when every live shard is doomed first.
        candidates = active
        migrated = False
        while True:
            shard_id = env.pick(batch, workload, candidates)
            start = max(batch.ready_seconds, env.busy(shard_id))
            crash_at = self.next_crash_after(shard_id, batch.ready_seconds)
            # A flushed parked batch can carry a ready time ahead of the
            # event cursor, so "alive now" is not enough: the shard must
            # also not be scheduled dead across the batch's actual start.
            if self.dead_until(shard_id, start) is None and (
                crash_at is None or crash_at > start
            ):
                break
            migrated = True
            candidates = [s for s in candidates if s != shard_id]
            if not candidates:
                self.migrated += len(batch.requests)
                horizons = []
                for s in active:
                    blocked = self.dead_until(
                        s, max(batch.ready_seconds, env.busy(s))
                    )
                    if blocked is not None:
                        horizons.append(blocked)
                        continue
                    crash = self.next_crash_after(s, batch.ready_seconds)
                    if crash is not None:
                        horizons.append(crash)
                self.parked.append(
                    RequestBatch(requests=batch.requests, ready_seconds=min(horizons))
                )
                return
        if migrated:
            self.migrated += len(batch.requests)
        report, duration = env.serve(shard_id, workload)
        duration = duration * self.factor[shard_id]
        finish = start + duration
        if crash_at is not None and crash_at < finish:
            # In-flight failure: the pass dies with the shard; each member
            # retries with exponential backoff until its budget runs out.
            env.set_busy(shard_id, crash_at)
            env.add_busy(shard_id, crash_at - start)
            if self.planner is not None:
                self.planner.raise_floor(shard_id, crash_at)
            for request in batch.requests:
                self._retry_or_fail(request, crash_at, env)
            return
        env.set_busy(shard_id, finish)
        if self.planner is not None:
            self.planner.plan(batch, shard_id, start, duration, report, finish)
            return
        env.add_busy(shard_id, duration)
        env.commit(batch, shard_id, start, duration, report, finish)
        self._note_degraded(batch, start, duration, finish)

    def _dispatch_oblivious(self, batch: RequestBatch, env: FaultLoopHooks) -> None:
        """The fault-oblivious baseline: dispatch is blind to liveness.

        A dead shard fails requests instantly (connection refused) without
        advancing its busy horizon — so to least-loaded dispatch it looks
        *idle* and keeps attracting traffic for the whole outage, the
        classic no-health-check death spiral.  Work already sitting in a
        shard's queue when the crash hits dies with the shard, and in-flight
        failures are terminal: nothing migrates, nothing retries.
        """
        if env.active_ids is not None:
            active = list(env.active_ids())
        else:
            active = list(range(env.active_count()))
        workload = env.merged(batch)
        shard_id = env.pick(batch, workload, active)
        if not self.alive[shard_id]:
            # Fail fast: the dead shard's horizon stays frozen, so dispatch
            # never learns to route around it.
            for request in batch.requests:
                self.failed += 1
                env.on_failed(request, batch.ready_seconds)
            return
        start = max(batch.ready_seconds, env.busy(shard_id))
        crash_at = self.next_crash_after(shard_id, batch.ready_seconds)
        if crash_at is not None and crash_at <= start:
            # The batch sat in the shard's queue when the crash hit: the
            # queue dies with the shard and nothing resubmits the work.
            for request in batch.requests:
                self.failed += 1
                env.on_failed(request, crash_at)
            return
        report, duration = env.serve(shard_id, workload)
        duration = duration * self.factor[shard_id]
        finish = start + duration
        if crash_at is not None and crash_at < finish:
            env.set_busy(shard_id, crash_at)
            env.add_busy(shard_id, crash_at - start)
            if self.planner is not None:
                self.planner.raise_floor(shard_id, crash_at)
            for request in batch.requests:
                self.failed += 1
                env.on_failed(request, crash_at)
            return
        env.set_busy(shard_id, finish)
        if self.planner is not None:
            self.planner.plan(batch, shard_id, start, duration, report, finish)
            return
        env.add_busy(shard_id, duration)
        env.commit(batch, shard_id, start, duration, report, finish)
        self._note_degraded(batch, start, duration, finish)

    def _retry_or_fail(self, request: InferenceRequest, seconds: float, env: FaultLoopHooks) -> None:
        attempt = self._attempts.get(request.request_id, 0)
        if attempt < self.schedule.retry_budget:
            self._attempts[request.request_id] = attempt + 1
            self.retried += 1
            retry_at = seconds + self.schedule.retry_backoff_seconds * (2.0 ** attempt)
            heapq.heappush(self._retries, (retry_at, self._retry_seq, request))
            self._retry_seq += 1
        else:
            self.failed += 1
            env.on_failed(request, seconds)

    def _note_degraded(
        self, batch: RequestBatch, start: float, duration: float, finish: float
    ) -> None:
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

    # -------------------------------------------------------- offline replay
    def _settle_retries(self, env: FaultLoopHooks, until: Optional[float]) -> None:
        while True:
            retry_at = self.next_retry_time()
            if retry_at is None or (until is not None and retry_at > until):
                return
            self.advance(env, retry_at)
            if self.next_retry_time() != retry_at:
                continue  # the advance re-dispatched work and moved the horizon
            request, at = self.pop_retry()
            self.dispatch(RequestBatch(requests=[request], ready_seconds=at), env)

    def step(self, env: FaultLoopHooks, batch: RequestBatch) -> None:
        """Offline replay: settle every retry and fault event due before
        ``batch`` closes, then dispatch it."""
        self._settle_retries(env, batch.ready_seconds)
        self.advance(env, batch.ready_seconds)
        self.dispatch(batch, env)

    def drain(self, env: FaultLoopHooks) -> None:
        """Settle all remaining retries and fault events after the last batch."""
        while True:
            self._settle_retries(env, None)
            if self._cursor < len(self._events):
                self.advance(env, self._events[self._cursor].seconds)
                continue
            break

    # -------------------------------------------------------------- summary
    def finalize(self, first_arrival: Optional[float], last_finish: float) -> FaultStats:
        """Fail whatever is still parked and summarise the run's fault story.

        Downtime and degraded windows are clipped to the observed run span
        ``[first_arrival, last_finish]`` so an outage scheduled past the end
        of traffic does not inflate the stats.
        """
        for batch in self.parked:
            self.failed += len(batch.requests)
        self.parked = []
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
