"""Unified serving configuration: one validated object instead of six kwargs.

Six PRs of growth left :meth:`ShardedServiceCluster.serve_trace` /
:meth:`~repro.serving.cluster.ShardedServiceCluster.serve_online` with a
sprawling keyword surface spread over three layers — the cluster
constructor (``engine``), the scheduler (``tenant_weights``), the admission
controller (``batch_aware``, ``record_decisions``) and the fault schedule
(``fault_aware``).  :class:`ServingConfig` consolidates all of it behind
``serve_trace(trace, config=...)`` / ``serve_online(source, config=...)``:

* **engine / tenant_weights** override the cluster's construction-time
  choices for one run (swapped in and restored afterwards);
* **slo** scores the run; **controller** (a pre-built
  :class:`~repro.serving.control.AdmissionController`) sheds against it;
* **admit=True** builds the controller from ``slo`` right here, with the
  admission knobs (``record_decisions``, ``batch_aware``, ``degradation``)
  carried by the config — the common case that previously required
  constructing the controller by hand;
* **degradation** (a :class:`~repro.serving.control.DegradationPolicy`)
  turns binary shedding into quality-latency tiering: requests whose
  full-quality prediction violates the SLO are downgraded to a cheaper
  execution profile instead of shed;
* **faults / fault_aware** inject a shard fault schedule and optionally
  override its health-check awareness;
* **autoscaler** attaches elastic scaling (online loop only); with its
  ``drain=True`` default a scale-down drains-and-migrates queued work to
  the surviving shards instead of stranding it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Optional

from repro.serving.control import (
    AdmissionController,
    Autoscaler,
    DegradationPolicy,
    SLOPolicy,
)
from repro.serving.engine import check_engine
from repro.serving.faults import FaultSchedule
from repro.serving.topology import PLACEMENTS, ClusterTopology


@dataclass(frozen=True)
class ServingConfig:
    """Everything one serving run needs, validated up front.

    Attributes:
        engine: serving engine override for this run (``"reference"`` /
            ``"fast"``); ``None`` keeps the cluster's own engine.
        slo: latency objectives the run is scored against.  On its own it
            never sheds (score-only).
        controller: a pre-built admission controller.  Mutually exclusive
            with the admission knobs below — a supplied controller already
            carries its own ``record_decisions`` / ``batch_aware`` /
            ``degradation``.  When set, ``slo`` defaults to the
            controller's policy for scoring.
        admit: build an :class:`AdmissionController` from ``slo`` with the
            knobs below (requires ``slo``; ignored when ``controller`` is
            given, which already implies admission).
        record_decisions: keep the per-request admission decision log
            (disable for memory-bounded 100k-request runs).
        batch_aware: predict with marginal merged-batch cost instead of the
            standalone estimate.
        degradation: quality-latency tiering policy; admission downgrades
            SLO-violating requests to their cheaper profile instead of
            shedding when the degraded prediction fits.
        autoscaler: elastic shard scaling (``serve_online`` only); the
            autoscaler's own ``drain`` flag picks drain-and-migrate
            (default) versus legacy stranding scale-downs.
        faults: shard crash/recover/slowdown schedule for the run.
        fault_aware: override the schedule's ``fault_aware`` flag (health
            checks on/off) without rebuilding it; requires ``faults``.
        tenant_weights: weighted-fair batch formation override; replaces
            the scheduler's ``tenant_weights`` for this run.
        topology: failure-domain topology override
            (:class:`~repro.serving.topology.ClusterTopology`) for this run;
            ``None`` keeps the cluster's own topology.  Domain-aware
            activation order, locality hashing and healthy-domain standby
            preference all follow the override.
        placement: activation-order placement override (``"spread"`` /
            ``"dense"``); ``None`` keeps the cluster's own placement.  Only
            meaningful when the run has a topology (its own or overridden).
    """

    engine: Optional[str] = None
    slo: Optional[SLOPolicy] = None
    controller: Optional[AdmissionController] = None
    admit: bool = False
    record_decisions: bool = True
    batch_aware: bool = False
    degradation: Optional[DegradationPolicy] = None
    autoscaler: Optional[Autoscaler] = None
    faults: Optional[FaultSchedule] = None
    fault_aware: Optional[bool] = None
    tenant_weights: Optional[Mapping[str, float]] = None
    topology: Optional[ClusterTopology] = None
    placement: Optional[str] = None

    def __post_init__(self) -> None:
        if self.engine is not None:
            check_engine(self.engine)
        knobs_touched = (
            self.record_decisions is not True
            or self.batch_aware is not False
            or self.degradation is not None
        )
        if self.controller is not None:
            if knobs_touched:
                raise ValueError(
                    "record_decisions / batch_aware / degradation belong to the "
                    "supplied controller — configure them on the "
                    "AdmissionController, not alongside it"
                )
            if self.slo is not None and self.slo is not self.controller.policy:
                raise ValueError(
                    "slo and controller.policy disagree; drop the slo field "
                    "(scoring defaults to the controller's policy)"
                )
        elif self.admit or knobs_touched:
            if self.slo is None:
                raise ValueError(
                    "admission (admit=True or any admission knob) requires an slo"
                )
        if self.fault_aware is not None and self.faults is None:
            raise ValueError("fault_aware requires a faults schedule")
        if self.tenant_weights is not None:
            if not self.tenant_weights:
                raise ValueError("tenant_weights must not be empty")
            for tenant, weight in self.tenant_weights.items():
                if weight <= 0:
                    raise ValueError(f"weight for tenant {tenant!r} must be positive")
        if self.placement is not None and self.placement not in PLACEMENTS:
            raise ValueError(
                f"unknown placement {self.placement!r}; expected one of {PLACEMENTS}"
            )

    # ------------------------------------------------------------- resolution
    def scoring_slo(self) -> Optional[SLOPolicy]:
        """The policy the run's goodput section is scored against."""
        if self.slo is not None:
            return self.slo
        if self.controller is not None:
            return self.controller.policy
        return None

    def resolved_controller(self) -> Optional[AdmissionController]:
        """The admission controller this run sheds with (``None`` = no shedding)."""
        if self.controller is not None:
            return self.controller
        if self.slo is not None and (
            self.admit
            or self.record_decisions is not True
            or self.batch_aware is not False
            or self.degradation is not None
        ):
            return AdmissionController(
                self.slo,
                record_decisions=self.record_decisions,
                batch_aware=self.batch_aware,
                degradation=self.degradation,
            )
        return None

    def resolved_faults(self) -> Optional[FaultSchedule]:
        """The fault schedule with any ``fault_aware`` override applied."""
        if self.faults is None or self.fault_aware is None:
            return self.faults
        if self.faults.fault_aware == self.fault_aware:
            return self.faults
        return replace(self.faults, fault_aware=self.fault_aware)
