"""Unified serving configuration: one validated object per run.

:class:`ServingConfig` carries everything that varies per run of
:meth:`~repro.serving.cluster.ShardedServiceCluster.serve_trace` /
:meth:`~repro.serving.cluster.ShardedServiceCluster.serve_online`: the
admission controller's knobs (``batch_aware``, ``record_decisions``), the
fault schedule and the control plane.  What a cluster *is* — its engine,
topology and scheduler (with its ``tenant_weights``) — is fixed at
construction (``ShardedServiceCluster(engine=, topology=)``,
``BatchScheduler(tenant_weights=)``), so a run never swaps it.

* **slo** scores the run;
* **admit=True** sheds against it: each run builds a fresh
  :class:`~repro.serving.control.AdmissionController` from ``slo`` and
  ``degradation``; the run itself reads the other admission knobs
  (``record_decisions``, ``batch_aware``);
* **degradation** (a :class:`~repro.serving.control.DegradationPolicy`)
  turns binary shedding into quality-latency tiering: requests whose
  full-quality prediction violates the SLO are downgraded to a cheaper
  execution profile instead of shed;
* **faults** injects a shard fault schedule (its own ``fault_aware`` flag
  switches health checks);
* **autoscaler** attaches elastic scaling (online loop only); with its
  ``drain=True`` default a scale-down drains-and-migrates queued work to
  the surviving shards instead of stranding it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.serving.control import (
    AdmissionController,
    Autoscaler,
    DegradationPolicy,
    SLOPolicy,
)
from repro.serving.faults import FaultSchedule


@dataclass(frozen=True)
class ServingConfig:
    """Everything one serving run needs, validated up front.

    Attributes:
        slo: latency objectives the run is scored against.  On its own it
            never sheds (score-only).
        admit: shed with an :class:`AdmissionController` built from ``slo``
            and the knobs below (requires ``slo``; setting any knob implies
            it).
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
    """

    slo: Optional[SLOPolicy] = None
    admit: bool = False
    record_decisions: bool = True
    batch_aware: bool = False
    degradation: Optional[DegradationPolicy] = None
    autoscaler: Optional[Autoscaler] = None
    faults: Optional[FaultSchedule] = None

    def __post_init__(self) -> None:
        if self._admits() and self.slo is None:
            raise ValueError(
                "admission (admit=True or any admission knob) requires an slo"
            )

    def _admits(self) -> bool:
        return (
            self.admit
            or self.record_decisions is not True
            or self.batch_aware is not False
            or self.degradation is not None
        )

    def resolved_controller(self) -> Optional[AdmissionController]:
        """A fresh admission controller for one run (``None`` = no shedding)."""
        if not self._admits():
            return None
        return AdmissionController(self.slo, degradation=self.degradation)
