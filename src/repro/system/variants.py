"""The AutoGNN system variants: AutoPre, StatPre and DynPre.

All three execute end-to-end preprocessing on the FPGA; they differ in how the
UPE region is organised and whether the hardware reconfigures at runtime
(Section VI):

* ``AutoPre`` statically splits the UPE region into an ordering-only and a
  selection-only sub-engine with equal LUT budgets; the two stages still run
  serially, so half the region idles at any time (47 % LUT utilisation).
* ``StatPre`` time-multiplexes the whole UPE region across ordering and
  selection (82 % utilisation); its configuration is fixed, tuned for the MV
  dataset.
* ``DynPre`` additionally reconfigures the UPE and SCR regions at runtime,
  selecting the pre-compiled bitstream pair that minimises the cost model for
  the current workload.  It is the only code that decides to reprogram.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.metrics import TaskLatencies
from repro.system.base import PreprocessingSystem, SystemLatency
from repro.core.bitstream import BitstreamLibrary, generate_bitstream_library
from repro.core.config import (
    FPGAResources,
    HardwareConfig,
    KERNEL_CLOCK_HZ,
    VPK180,
    scaled_default_config,
)
from repro.core.cost_model import CandidateTable, CostModel, WorkloadParams
from repro.core.kernels import (
    ordering_cycle_count,
    reindexing_cycle_estimate,
    reshaping_cycle_estimate,
    selection_cycle_count,
)
from repro.core.reconfig import FULL_RECONFIG_SECONDS, ReconfigurationController
from repro.system.pcie import PCIeLink, TransferBreakdown
from repro.system.workload import WorkloadProfile

#: Peak bandwidth of the accelerator's device DRAM (bytes/second).
DEVICE_BANDWIDTH: float = 64e9

#: Fraction of peak DRAM bandwidth the streaming datapaths can sustain.
DEVICE_BANDWIDTH_EFFICIENCY: float = 0.92

#: DRAM passes the edge array makes during ordering (load, spill, merge).
ORDERING_DRAM_PASSES: int = 3

#: Fixed host-side overhead charged to every AutoGNN preprocessing pass:
#: AGNN-lib bookkeeping, scatter-gather descriptor setup in AGNN-drv and the
#: doorbell/interrupt round trips of the DMA engines.
HOST_SOFTWARE_OVERHEAD_SECONDS: float = 3e-3

#: Minimum fractional latency improvement DynPre requires before paying the
#: reconfiguration cost.
RECONFIGURE_THRESHOLD: float = 0.05


def task_cycles(
    workload: WorkloadProfile,
    ordering_cfg: HardwareConfig,
    selection_cfg: HardwareConfig,
    scr_cfg: HardwareConfig,
) -> Tuple[int, int, int, int]:
    """Ordering, reshaping, selecting and reindexing cycles of one pass.

    Each task runs on the configuration effective for it: ordering and
    selection on the UPE region (``ordering_cfg``, ``selection_cfg``),
    reshaping and reindexing on the SCR region (``scr_cfg``).  The counts
    cover the input graph only, not the reindexed subgraph's conversion.
    """
    arrays = max(workload.total_selections // max(workload.k, 1), 1)
    return (
        ordering_cycle_count(workload.num_edges, workload.num_nodes, ordering_cfg),
        reshaping_cycle_estimate(workload.num_edges, workload.num_nodes, scr_cfg),
        selection_cycle_count(workload.total_selections, arrays, selection_cfg),
        reindexing_cycle_estimate(
            2 * workload.sampled_edges, workload.per_seed_subgraph_nodes, scr_cfg
        ),
    )


def tuned_config_for(workload: WorkloadProfile, library: BitstreamLibrary) -> HardwareConfig:
    """The bitstream pair the cost model prefers for ``workload``."""
    params = workload.to_cost_params()
    config, _ = CostModel().best_configuration(params, library.configurations())
    return config


@dataclass
class _TaskBytes:
    """DRAM traffic per preprocessing task (bytes)."""

    ordering: int
    reshaping: int
    selecting: int
    reindexing: int

    @property
    def total(self) -> int:
        return self.ordering + self.reshaping + self.selecting + self.reindexing


class AutoGNNVariant(PreprocessingSystem):
    """Shared machinery of the three AutoGNN system variants."""

    name = "AutoGNN"

    def __init__(
        self,
        config: Optional[HardwareConfig] = None,
        board: FPGAResources = VPK180,
        pcie: Optional[PCIeLink] = None,
        clock_hz: float = KERNEL_CLOCK_HZ,
        device_bandwidth: Optional[float] = None,
    ) -> None:
        super().__init__(pcie=pcie)
        self.board = board
        self.config = config or scaled_default_config(board)
        self.clock_hz = clock_hz
        if device_bandwidth is None:
            device_bandwidth = getattr(board, "dram_bandwidth", DEVICE_BANDWIDTH)
        #: The device DRAM's peak bandwidth, and the share of it the
        #: streaming datapaths sustain (bytes/second).
        self.peak_bandwidth = device_bandwidth
        self.device_bandwidth = device_bandwidth * DEVICE_BANDWIDTH_EFFICIENCY

    # ------------------------------------------------------------- components
    def _ordering_config(self, config: HardwareConfig) -> HardwareConfig:
        """Hardware configuration effective during edge ordering under ``config``."""
        return config

    def _selection_config(self, config: HardwareConfig) -> HardwareConfig:
        """Hardware configuration effective during unique random selection."""
        return config

    def _task_bytes(self, workload: WorkloadProfile) -> _TaskBytes:
        """DRAM traffic each task generates."""
        edge_bytes = workload.graph_bytes
        return _TaskBytes(
            ordering=edge_bytes * ORDERING_DRAM_PASSES,
            reshaping=edge_bytes + (workload.num_nodes + 1) * 8,
            selecting=workload.total_selections * 8 * 2,
            reindexing=workload.sampled_edges * 2 * 8,
        )

    def _bandwidth_bound(self, compute_seconds: float, num_bytes: int) -> float:
        """A task cannot finish faster than its DRAM traffic allows."""
        if num_bytes <= 0:
            return compute_seconds
        return max(compute_seconds, num_bytes / self.device_bandwidth)

    def _compute_task_latencies(
        self, workload: WorkloadProfile, config: HardwareConfig
    ) -> TaskLatencies:
        """Per-task preprocessing latency with ``config`` loaded."""
        ordering_cfg = self._ordering_config(config)
        ordering, reshaping, selecting, reindexing = task_cycles(
            workload, ordering_cfg, self._selection_config(config), config
        )
        # The reindexed subgraph is converted once more (ordering + reshaping).
        ordering += ordering_cycle_count(
            workload.sampled_edges, workload.sampled_nodes, ordering_cfg
        )
        reshaping += reshaping_cycle_estimate(
            workload.sampled_edges, workload.sampled_nodes, config
        )
        traffic = self._task_bytes(workload)
        bound = self._bandwidth_bound
        return TaskLatencies(
            ordering=bound(ordering / self.clock_hz, traffic.ordering),
            reshaping=bound(reshaping / self.clock_hz, traffic.reshaping),
            selecting=bound(selecting / self.clock_hz, traffic.selecting),
            reindexing=bound(reindexing / self.clock_hz, traffic.reindexing),
        )

    def _transfers(self, workload: WorkloadProfile) -> TransferBreakdown:
        """AutoGNN keeps the graph resident: only updates in, subgraph out.

        The host-side software overhead (AGNN-lib/AGNN-drv descriptor setup)
        is charged to the host-to-accelerator hop.
        """
        return TransferBreakdown(
            host_to_accelerator=HOST_SOFTWARE_OVERHEAD_SECONDS
            + self.pcie.dma_main(workload.update_bytes),
            accelerator_to_gpu=self.pcie.best_path(workload.subgraph_bytes),
        )

    def _bandwidth_utilization(
        self, workload: WorkloadProfile, latencies: TaskLatencies
    ) -> float:
        traffic = self._task_bytes(workload)
        if latencies.total <= 0:
            return 0.0
        achieved = traffic.total / latencies.total
        return min(achieved / self.peak_bandwidth, 1.0)

    #: Whether the UPE and SCR stages of this variant overlap (stream through
    #: each other) or execute strictly serially.
    pipelined: bool = True

    @property
    def warmup_seconds(self) -> float:
        """A fresh AutoGNN shard must program its initial bitstream pair."""
        return FULL_RECONFIG_SECONDS

    def lut_utilization(self, latencies: TaskLatencies) -> float:
        """Time-averaged fraction of the reconfigurable region doing useful work
        during a pass with the loaded configuration's task ``latencies``.

        The UPE region is busy during ordering and selection, the SCR region
        during reshaping and reindexing.  Variants whose stages stream into
        each other (StatPre, DynPre) overlap the two regions, so the makespan
        is the longer of the two; AutoPre's fixed sub-engines execute serially
        and only half of the UPE region is ever active.
        """
        budget = self.board.reconfigurable_luts()
        upe_region = self.config.upe_region_budget()
        scr_region = self.config.scr_region_budget()
        upe_time = latencies.ordering + latencies.selecting
        scr_time = latencies.reshaping + latencies.reindexing
        makespan = max(upe_time, scr_time) if self.pipelined else (upe_time + scr_time)
        if makespan <= 0:
            return 0.0
        upe_active = self._active_upe_fraction() * upe_region * (upe_time / makespan)
        scr_active = scr_region * min(scr_time / makespan, 1.0)
        return (upe_active + scr_active) / budget

    def _active_upe_fraction(self) -> float:
        """Fraction of the UPE region that is busy while a UPE stage runs."""
        return 1.0

    # -------------------------------------------------------------- evaluate
    def reconfigure_for(self, workload: WorkloadProfile) -> float:
        """Reconfiguration latency charged to a pass of ``workload`` (none:
        the configuration is fixed; DynPre overrides)."""
        return 0.0

    def evaluate(self, workload: WorkloadProfile) -> SystemLatency:
        reconfiguration = self.reconfigure_for(workload)
        preprocessing = self._compute_task_latencies(workload, self.config)
        return SystemLatency(
            preprocessing=preprocessing,
            transfers=self._transfers(workload),
            reconfiguration=reconfiguration,
            bandwidth_utilization=self._bandwidth_utilization(workload, preprocessing),
            lut_utilization=self.lut_utilization(preprocessing),
        )


class AutoPreSystem(AutoGNNVariant):
    """Static UPE split: ordering-only and selection-only sub-engines."""

    name = "AutoPre"
    pipelined = False

    def _ordering_config(self, config: HardwareConfig) -> HardwareConfig:
        return config.with_upe(num_upes=max(config.num_upes // 2, 1))

    def _selection_config(self, config: HardwareConfig) -> HardwareConfig:
        return config.with_upe(num_upes=max(config.num_upes // 2, 1))

    def _active_upe_fraction(self) -> float:
        # Only one of the two fixed sub-engines is ever busy at a time.
        return 0.5


class StatPreSystem(AutoGNNVariant):
    """Unified UPE region, time-multiplexed; fixed configuration.

    The paper tunes the fixed configuration for the MV dataset, an
    intermediate-sized graph, which gives the best average performance
    (:func:`tuned_config_for`).
    """

    name = "StatPre"


class DynPreSystem(AutoGNNVariant):
    """Runtime partial reconfiguration driven by the cost model.

    Any staged UPE x SCR bitstream pair may be loaded; a pass reconfigures
    only when the best one beats the loaded pair by
    :data:`RECONFIGURE_THRESHOLD`.

    Args:
        library: staged bitstream library to choose from.
    """

    name = "DynPre"

    def __init__(
        self,
        library: Optional[BitstreamLibrary] = None,
        board: FPGAResources = VPK180,
        **kwargs,
    ) -> None:
        super().__init__(board=board, **kwargs)
        self.library = library or generate_bitstream_library(board)
        self.cost_model = CostModel()
        self.reconfig = ReconfigurationController(self.library, self.config)
        # Every staged configuration (the loaded one when none is staged) as
        # a cost-model table, shared with every replica: the library is
        # immutable.
        self._candidates = CandidateTable(self.library.configurations() or [self.config])
        self._new_memos()

    def _new_memos(self) -> None:
        """Empty pure memos: each result depends only on its key."""
        # configured_for memo: the decision is pure given (config, workload),
        # and the locality dispatch policy queries it per shard per batch.
        self._configured_cache: Dict[tuple, bool] = {}
        # _compute_task_latencies memo: the bandwidth-aware latency model is
        # pure given (config, workload shape).  choose_config scores a
        # shortlist per shape, and evaluate then reads the loaded pair's entry.
        self._latency_cache: Dict[tuple, TaskLatencies] = {}
        # choose_config's shortlist memo: the cost model's top-ranked
        # candidates are pure given the workload's cost parameters (the
        # candidates are the immutable library's).
        self._shortlists: Dict[WorkloadParams, List[HardwareConfig]] = {}

    def replicate(self) -> "DynPreSystem":
        """A copy with its own reconfiguration controller and empty memos."""
        return self.replicas(1)[0]

    def replicas(self, count: int) -> List["DynPreSystem"]:
        """Copies for one cluster's shards.

        The reconfiguration controller is the only per-shard state, so each
        copy gets its own.  The copies share one set of empty pure memos
        with each other, never with this system: a cluster's shards rank
        each shape once, and the template's memos stay as they were.
        """
        prototype = copy.copy(self)
        prototype._new_memos()
        clones = [copy.copy(prototype) for _ in range(count)]
        for clone in clones:
            clone.reconfig = ReconfigurationController(self.library, self.config)
        return clones

    # ---------------------------------------------------------- configuration
    def _compute_task_latencies(
        self, workload: WorkloadProfile, config: HardwareConfig
    ) -> TaskLatencies:
        """Per-task latency with ``config`` loaded, memoized on (configuration,
        workload shape): the model is pure given those.  The memo's values
        are shared by every pass that hits them and never mutated."""
        cache_key = (config, workload.batch_key, workload.batch_size)
        latencies = self._latency_cache.get(cache_key)
        if latencies is None:
            latencies = super()._compute_task_latencies(workload, config)
            self._latency_cache[cache_key] = latencies
        return latencies

    def _latency_with(self, config: HardwareConfig, workload: WorkloadProfile) -> float:
        """Predicted per-pass preprocessing latency under ``config``.

        The cost model of Table I ranks candidates quickly, but the final
        decision uses the variant's own latency model (which includes the
        device-DRAM bandwidth bound) so that a reconfiguration is only paid
        for when it actually shortens the pass.
        """
        return self._compute_task_latencies(workload, config).total

    def choose_config(self, workload: WorkloadProfile) -> HardwareConfig:
        """Best candidate configuration for ``workload``.

        The Table I cost model ranks the candidates as arrays; the eight
        best-ranked (ties in library order) and the loaded pair are then
        re-evaluated with the bandwidth-aware latency model.  The shortlist
        is memoized per cost parameters.
        """
        params = workload.to_cost_params()
        shortlist = self._shortlists.get(params)
        if shortlist is None:
            ranking = self.cost_model.ranking(params, self._candidates)
            shortlist = [self._candidates.configs[i] for i in ranking[:8].tolist()]
            self._shortlists[params] = shortlist
        return min(
            shortlist + [self.config], key=lambda cfg: self._latency_with(cfg, workload)
        )

    def configured_for(self, workload: WorkloadProfile) -> bool:
        """Whether evaluating ``workload`` now would keep the loaded bitstreams.

        Mirrors :meth:`reconfigure_for`'s decision without mutating any state,
        so the locality dispatch policy can rank shards by their current
        reconfiguration state before committing a batch to one of them.
        Memoized on (current configuration, workload shape): the underlying
        candidate sweep is pure given those inputs.
        """
        cache_key = (self.config.key(), workload.batch_key, workload.batch_size)
        cached = self._configured_cache.get(cache_key)
        if cached is not None:
            return cached
        result = self._better_config(workload) is None
        self._configured_cache[cache_key] = result
        return result

    def _better_config(self, workload: WorkloadProfile) -> Optional[HardwareConfig]:
        """The configuration worth reconfiguring to for ``workload``, or None
        when no candidate beats the loaded one by ``RECONFIGURE_THRESHOLD``."""
        current_latency = self._latency_with(self.config, workload)
        if current_latency <= 0:
            return None
        best = self.choose_config(workload)
        if best.key() == self.config.key():
            return None
        improvement = (current_latency - self._latency_with(best, workload)) / current_latency
        return None if improvement < RECONFIGURE_THRESHOLD else best

    # ---------------------------------------------------------- serving state
    def state_key(self) -> HardwareConfig:
        """The loaded bitstream pair: the state a pass's outcome depends on."""
        return self.config

    def apply_state(self, state: HardwareConfig) -> None:
        """Load ``state``, a cached transition's end state, onto this replica.

        Routes the change through the reconfiguration controller so the
        event log stays faithful: the controller derives the affected
        regions and the reconfiguration latency purely from the (old, new)
        configuration pair, exactly as the fresh pass that populated the
        cache did.
        """
        # Identity first: hits replay the cluster's interned state object.
        if state is self.config or state == self.config:
            return
        self.reconfig.reconfigure(state)
        self.config = state

    def reconfigure_for(self, workload: WorkloadProfile) -> float:
        """Reconfigure if the predicted improvement clears the threshold.

        Returns the reconfiguration latency charged to this pass (0 when the
        current configuration is kept).
        """
        best = self._better_config(workload)
        if best is None:
            return 0.0
        event = self.reconfig.reconfigure(best)
        self.config = best
        return event.latency_seconds if event else 0.0
