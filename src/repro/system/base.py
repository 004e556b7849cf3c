"""Common interface of every compared preprocessing system.

A preprocessing system turns a :class:`~repro.system.workload.WorkloadProfile`
into per-task preprocessing latencies, transfer latencies and (for the
reconfigurable AutoGNN variants) reconfiguration latency.  The GNN service
layer adds the inference latency on top to produce end-to-end numbers.

Both the software baselines (:mod:`repro.baselines`) and the AutoGNN variants
(:mod:`repro.system.variants`) implement this interface, which is why it lives
here rather than in either package.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional

from repro.analysis.metrics import EndToEndLatency, TaskLatencies
from repro.system.pcie import PCIeLink, TransferBreakdown
from repro.system.workload import WorkloadProfile


@dataclass
class SystemLatency:
    """Everything a preprocessing system reports for one pass.

    Attributes:
        preprocessing: per-task preprocessing latencies (seconds).
        transfers: per-hop data-movement latencies (seconds).
        reconfiguration: FPGA reconfiguration latency (seconds, AutoGNN only).
        bandwidth_utilization: fraction of the platform's peak memory bandwidth
            sustained during preprocessing.
        extras: free-form additional metrics (LUT utilisation, power, ...).
    """

    preprocessing: TaskLatencies = field(default_factory=TaskLatencies)
    transfers: TransferBreakdown = field(default_factory=TransferBreakdown)
    reconfiguration: float = 0.0
    bandwidth_utilization: float = 0.0
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def preprocessing_total(self) -> float:
        """Total preprocessing latency excluding transfers."""
        return self.preprocessing.total

    @property
    def total(self) -> float:
        """Preprocessing + transfer + reconfiguration latency."""
        return self.preprocessing.total + self.transfers.total + self.reconfiguration

    def end_to_end(self, inference_seconds: float) -> EndToEndLatency:
        """Attach an inference latency and produce the end-to-end decomposition."""
        return EndToEndLatency(
            preprocessing=self.preprocessing,
            transfer=self.transfers.total,
            inference=inference_seconds,
            reconfiguration=self.reconfiguration,
        )


class PreprocessingSystem(ABC):
    """Abstract compared system (CPU, GPU, GSamp, FPGA sampler, AutoGNN ...)."""

    #: Display name used in benchmark output (matches the paper's labels).
    name: str = "system"

    def __init__(self, pcie: Optional[PCIeLink] = None) -> None:
        self.pcie = pcie or PCIeLink()

    # ------------------------------------------------------------ interface
    @abstractmethod
    def evaluate(self, workload: WorkloadProfile) -> SystemLatency:
        """Model one preprocessing pass of ``workload`` on this system."""

    def replicate(self) -> "PreprocessingSystem":
        """A fresh instance with the same configuration and no shared state.

        The sharded serving cluster calls this once per shard so that every
        replica carries its own mutable state (bitstream configuration,
        reconfiguration history, caches).  Immutable inputs (calibrations,
        PCIe links, bitstream libraries) may be shared.  Subclasses whose
        constructors take more than ``pcie`` must override.
        """
        clone = type(self)(pcie=self.pcie)
        clone.name = self.name
        return clone

    def replicas(self, count: int) -> List["PreprocessingSystem"]:
        """``count`` replicas for the shards of one serving cluster.

        Each is a :meth:`replicate` with its own mutable state.  Systems
        with pure memos (results that depend only on the memo key) may share
        them among the replicas, but never with ``self``: a template's
        caches stay as they were.
        """
        return [self.replicate() for _ in range(count)]

    # -------------------------------------------------------- serving state
    def state_key(self) -> Optional[Hashable]:
        """Hashable digest of the mutable state that affects ``evaluate``.

        ``None`` (the default) declares the system *stateless for serving*:
        ``evaluate`` is a pure function of the workload, so results may be
        memoized on the workload alone and replayed on any replica.  Systems
        whose passes depend on mutable state (DynPre's currently loaded
        bitstream pair) override this with a digest of that state; the
        serving fast engine and the service-level cost cache key their
        memoization on it, which is what makes a post-reconfigure estimate
        unable to reuse a pre-reconfigure cost.
        """
        return None

    def snapshot_state(self) -> Optional[object]:
        """Opaque snapshot of the mutable serving state (None = stateless).

        Taken by the serving fast engine right after a freshly computed pass
        so the (state, workload) -> (report, next state) transition can be
        replayed from cache on any replica in the same starting state.
        """
        return None

    def apply_state(self, snapshot: Optional[object]) -> None:
        """Restore a snapshot captured by :meth:`snapshot_state` (no-op here).

        Replaying a cached transition must leave the replica in exactly the
        state a fresh pass would have produced — including bookkeeping such
        as reconfiguration event logs — so stateful systems override this.
        """

    # ----------------------------------------------------------- cost hints
    def cost_hint(self, workload: WorkloadProfile) -> float:
        """Side-effect-free estimate of one full pass (preprocessing + moves).

        The serving control plane uses this to predict a request's sojourn
        before admitting it, so the estimate must not mutate this instance:
        the default evaluates a throwaway replica, which leaves stateful
        systems (DynPre's reconfiguration history) untouched.  Stateless
        systems may override with a direct evaluation.
        """
        return self.replicate().evaluate(workload).total

    def configured_for(self, workload: WorkloadProfile) -> bool:
        """Whether serving ``workload`` now would trigger no state change.

        Reconfigurable systems report ``True`` when their currently loaded
        bitstream pair already suits the workload (no reconfiguration would
        fire); the locality dispatch policy prefers such shards.  Systems
        without reconfigurable state return ``False`` so that hash-based
        home-shard affinity stays in effect for them.
        """
        return False

    @property
    def warmup_seconds(self) -> float:
        """Latency to bring a fresh shard of this system online.

        The autoscaler charges this once when it activates a shard; systems
        that must load a bitstream before serving (the AutoGNN variants)
        override with the full-device reconfiguration latency.
        """
        return 0.0

    # ------------------------------------------------------------- niceties
    def preprocessing_latency(self, workload: WorkloadProfile) -> TaskLatencies:
        """Per-task preprocessing latencies only."""
        return self.evaluate(workload).preprocessing

    def total_latency(self, workload: WorkloadProfile) -> float:
        """Preprocessing + transfer + reconfiguration latency."""
        return self.evaluate(workload).total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
