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

import copy
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Hashable, List, Optional

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
        lut_utilization: time-averaged fraction of the reconfigurable
            region doing useful work (AutoGNN variants only; Fig. 21).
    """

    preprocessing: TaskLatencies = field(default_factory=TaskLatencies)
    transfers: TransferBreakdown = field(default_factory=TransferBreakdown)
    reconfiguration: float = 0.0
    bandwidth_utilization: float = 0.0
    lut_utilization: float = 0.0

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
    """Abstract compared system (CPU, GPU, GSamp, FPGA sampler, AutoGNN ...).

    Replication rule: a system's instance attributes are immutable inputs
    (calibrations, PCIe links, board and bitstream descriptions, the loaded
    configuration) or pure memos.  :meth:`replicate` is therefore a shallow
    copy; a subclass that carries per-shard mutable state resets exactly
    that state there, and everything else is shared.
    """

    #: Display name used in benchmark output (matches the paper's labels).
    name: str = "system"

    #: Power model the GNN service bills preprocessing at (``"cpu"``,
    #: ``"gpu"`` or ``"fpga"``); it does not follow a renamed ``name``.
    power_platform: str = "fpga"

    def __init__(self, pcie: Optional[PCIeLink] = None) -> None:
        self.pcie = pcie or PCIeLink()

    # ------------------------------------------------------------ interface
    @abstractmethod
    def evaluate(self, workload: WorkloadProfile) -> SystemLatency:
        """Model one preprocessing pass of ``workload`` on this system."""

    def replicate(self) -> "PreprocessingSystem":
        """A copy for one more shard: ``copy.copy(self)``.

        The sharded serving cluster builds every shard this way.  The copy
        shares every attribute with this system, so per-shard mutable state
        (DynPre's reconfiguration controller) must be reset by an override.
        """
        return copy.copy(self)

    def replicas(self, count: int) -> List["PreprocessingSystem"]:
        """``count`` replicas for the shards of one serving cluster.

        Each is a :meth:`replicate`.  Systems with pure memos (results that
        depend only on the memo key) may share them among the replicas, but
        never with ``self``: a template's caches stay as they were.
        """
        return [self.replicate() for _ in range(count)]

    # -------------------------------------------------------- serving state
    def state_key(self) -> Optional[Hashable]:
        """The mutable state that affects ``evaluate``, as a hashable value.

        ``None`` (the default) declares the system *stateless for serving*:
        ``evaluate`` is a pure function of the workload, so results may be
        memoized on the workload alone and replayed on any replica.  Systems
        whose passes depend on mutable state (DynPre's currently loaded
        bitstream pair) return that state.  The serving fast engine keys
        its serve-transition cache on it and replays a cached transition's
        end state through :meth:`apply_state`; the service-level cost cache
        keys on it too, so a post-reconfigure estimate cannot reuse a
        pre-reconfigure cost.
        """
        return None

    def apply_state(self, state: Optional[Hashable]) -> None:
        """Move to a ``state`` returned by :meth:`state_key` (no-op here).

        Replaying a cached transition must leave the replica in exactly the
        state a fresh pass would have produced — including bookkeeping such
        as reconfiguration event logs — so stateful systems override this.
        """

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
