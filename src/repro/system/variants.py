"""The AutoGNN system variants: AutoPre, StatPre and DynPre (plus ablations).

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
  the current workload.  The ablations ``DynArea`` / ``DynSCR`` / ``DynUPE``
  (Fig. 22) progressively enable area, SCR and UPE re-optimisation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.metrics import TaskLatencies
from repro.system.base import PreprocessingSystem, SystemLatency
from repro.core.accelerator import AcceleratedPreprocessing, AutoGNNDevice
from repro.core.bitstream import BitstreamLibrary, generate_bitstream_library
from repro.core.config import (
    FPGAResources,
    HardwareConfig,
    KERNEL_CLOCK_HZ,
    VPK180,
    scaled_default_config,
)
from repro.core.cost_model import CostModel
from repro.core.kernels import (
    ordering_cycle_count,
    reindexing_cycle_estimate,
    reshaping_cycle_estimate,
    selection_cycle_count,
)
from repro.core.reconfig import FULL_RECONFIG_SECONDS, ReconfigurationController
from repro.graph.coo import COOGraph
from repro.graph.sampling import MODE_VECTORIZED, check_mode
from repro.preprocessing.pipeline import PreprocessingConfig
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


def tuned_config_for(
    workload: WorkloadProfile,
    library: BitstreamLibrary,
    cost_model: Optional[CostModel] = None,
) -> HardwareConfig:
    """The bitstream pair the cost model prefers for ``workload``."""
    cost_model = cost_model or CostModel()
    params = workload.to_cost_params()
    config, _ = cost_model.best_configuration(params, library.configurations())
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
        mode: str = MODE_VECTORIZED,
    ) -> None:
        super().__init__(pcie=pcie)
        self.board = board
        self.config = config or scaled_default_config(board)
        self.clock_hz = clock_hz
        self.mode = check_mode(mode)
        if device_bandwidth is None:
            device_bandwidth = getattr(board, "dram_bandwidth", DEVICE_BANDWIDTH)
        # Kept pre-efficiency so replicas can be constructed from it without
        # compounding the efficiency factor.
        self._device_bandwidth_raw = device_bandwidth
        self.device_bandwidth = device_bandwidth * DEVICE_BANDWIDTH_EFFICIENCY

    def replicate(self) -> "AutoGNNVariant":
        """Fresh instance with this variant's configuration (per-shard state)."""
        clone = type(self)(
            config=self.config,
            board=self.board,
            pcie=self.pcie,
            clock_hz=self.clock_hz,
            device_bandwidth=self._device_bandwidth_raw,
            mode=self.mode,
        )
        clone.name = self.name
        return clone

    # ------------------------------------------------------- functional path
    def preprocess_functional(
        self,
        graph: COOGraph,
        config: Optional[PreprocessingConfig] = None,
        batch_nodes=None,
    ) -> AcceleratedPreprocessing:
        """Run the functional preprocessing workflow on an in-memory graph.

        Instantiates an :class:`AutoGNNDevice` with this variant's current
        hardware configuration and execution ``mode`` (the vectorized fast
        path by default) and executes the full Fig. 14 workflow, returning
        both the preprocessed subgraph and the cycle-level timing.  An
        explicitly supplied ``config`` wins on execution mode (the device
        delegates to the requested mode).
        """
        device = AutoGNNDevice(config=self.config, clock_hz=self.clock_hz, mode=self.mode)
        return device.preprocess(graph, config, batch_nodes=batch_nodes)

    # ------------------------------------------------------------- components
    def _ordering_config(self) -> HardwareConfig:
        """Hardware configuration effective during edge ordering."""
        return self.config

    def _selection_config(self) -> HardwareConfig:
        """Hardware configuration effective during unique random selection."""
        return self.config

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

    def _compute_task_latencies(self, workload: WorkloadProfile) -> TaskLatencies:
        """Per-task preprocessing latency for this variant's configuration."""
        ordering_cfg = self._ordering_config()
        selection_cfg = self._selection_config()
        scr_cfg = self.config
        traffic = self._task_bytes(workload)

        ordering_cycles = ordering_cycle_count(
            workload.num_edges, workload.num_nodes, ordering_cfg
        )
        reshaping_cycles = reshaping_cycle_estimate(
            workload.num_edges, workload.num_nodes, scr_cfg
        )
        arrays = max(workload.total_selections // max(workload.k, 1), 1)
        selecting_cycles = selection_cycle_count(
            workload.total_selections, arrays, selection_cfg
        )
        reindexing_cycles = reindexing_cycle_estimate(
            2 * workload.sampled_edges, workload.per_seed_subgraph_nodes, scr_cfg
        )
        # The reindexed subgraph is converted once more (ordering + reshaping).
        sub_ordering = ordering_cycle_count(
            workload.sampled_edges, workload.sampled_nodes, ordering_cfg
        )
        sub_reshaping = reshaping_cycle_estimate(
            workload.sampled_edges, workload.sampled_nodes, scr_cfg
        )

        ordering = self._bandwidth_bound(
            (ordering_cycles + sub_ordering) / self.clock_hz, traffic.ordering
        )
        reshaping = self._bandwidth_bound(
            (reshaping_cycles + sub_reshaping) / self.clock_hz, traffic.reshaping
        )
        selecting = self._bandwidth_bound(
            selecting_cycles / self.clock_hz, traffic.selecting
        )
        reindexing = self._bandwidth_bound(
            reindexing_cycles / self.clock_hz, traffic.reindexing
        )
        return TaskLatencies(
            ordering=ordering,
            reshaping=reshaping,
            selecting=selecting,
            reindexing=reindexing,
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
        return min(achieved / (DEVICE_BANDWIDTH), 1.0)

    #: Whether the UPE and SCR stages of this variant overlap (stream through
    #: each other) or execute strictly serially.
    pipelined: bool = True

    @property
    def warmup_seconds(self) -> float:
        """A fresh AutoGNN shard must program its initial bitstream pair."""
        return FULL_RECONFIG_SECONDS

    def lut_utilization(self, workload: WorkloadProfile) -> float:
        """Time-averaged fraction of the reconfigurable region doing useful work.

        The UPE region is busy during ordering and selection, the SCR region
        during reshaping and reindexing.  Variants whose stages stream into
        each other (StatPre, DynPre) overlap the two regions, so the makespan
        is the longer of the two; AutoPre's fixed sub-engines execute serially
        and only half of the UPE region is ever active.
        """
        latencies = self._compute_task_latencies(workload)
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
    def evaluate(self, workload: WorkloadProfile) -> SystemLatency:
        preprocessing = self._compute_task_latencies(workload)
        transfers = self._transfers(workload)
        return SystemLatency(
            preprocessing=preprocessing,
            transfers=transfers,
            reconfiguration=0.0,
            bandwidth_utilization=self._bandwidth_utilization(workload, preprocessing),
            extras={"lut_utilization": self.lut_utilization(workload)},
        )


class AutoPreSystem(AutoGNNVariant):
    """Static UPE split: ordering-only and selection-only sub-engines."""

    name = "AutoPre"
    pipelined = False

    def _ordering_config(self) -> HardwareConfig:
        return self.config.with_upe(num_upes=max(self.config.num_upes // 2, 1))

    def _selection_config(self) -> HardwareConfig:
        return self.config.with_upe(num_upes=max(self.config.num_upes // 2, 1))

    def _active_upe_fraction(self) -> float:
        # Only one of the two fixed sub-engines is ever busy at a time.
        return 0.5


class StatPreSystem(AutoGNNVariant):
    """Unified UPE region, time-multiplexed; fixed configuration."""

    name = "StatPre"

    @classmethod
    def tuned_for(
        cls,
        workload: WorkloadProfile,
        library: Optional[BitstreamLibrary] = None,
        board: FPGAResources = VPK180,
        **kwargs,
    ) -> "StatPreSystem":
        """A StatPre instance whose fixed configuration is tuned for ``workload``.

        The paper tunes StatPre (and AutoPre) for the MV dataset, an
        intermediate-sized graph, which gives the best average performance.
        """
        library = library or generate_bitstream_library(board)
        config = tuned_config_for(workload, library)
        return cls(config=config, board=board, **kwargs)


class DynPreSystem(AutoGNNVariant):
    """Runtime partial reconfiguration driven by the cost model.

    Args:
        library: staged bitstream library to choose from.
        optimize_area: allow changing the UPE:SCR area split (DynArea).
        optimize_scr: allow changing the SCR width/slot count (DynSCR).
        optimize_upe: allow changing the UPE width/count (DynUPE / full DynPre).
        reconfigure_threshold: minimum fractional latency improvement required
            before paying the reconfiguration cost.
    """

    name = "DynPre"

    def __init__(
        self,
        library: Optional[BitstreamLibrary] = None,
        board: FPGAResources = VPK180,
        optimize_area: bool = True,
        optimize_scr: bool = True,
        optimize_upe: bool = True,
        reconfigure_threshold: float = 0.05,
        **kwargs,
    ) -> None:
        super().__init__(board=board, **kwargs)
        self.library = library or generate_bitstream_library(board)
        self.cost_model = CostModel()
        self.optimize_area = optimize_area
        self.optimize_scr = optimize_scr
        self.optimize_upe = optimize_upe
        self.reconfigure_threshold = reconfigure_threshold
        self.reconfig = ReconfigurationController(self.library, self.config)
        # configured_for memo: the decision is pure given (config, workload),
        # and the locality dispatch policy queries it per shard per batch.
        self._configured_cache: Dict[tuple, bool] = {}
        # _latency_with memo: the bandwidth-aware latency model is pure given
        # (config, workload shape); choose_config re-evaluates a shortlist of
        # candidates per pass, so repeated workloads hit this cache.
        self._latency_cache: Dict[tuple, float] = {}
        # _candidate_configs memo: the reachable set is pure given the
        # loaded configuration (the library and ablation knobs are fixed).
        self._candidate_cache: Dict[HardwareConfig, List[HardwareConfig]] = {}

    def replicate(self) -> "DynPreSystem":
        """Fresh replica: shares the immutable bitstream library but carries
        its own configuration state and reconfiguration controller, so each
        shard of a serving cluster adapts to its own traffic independently."""
        clone = type(self)(
            library=self.library,
            board=self.board,
            optimize_area=self.optimize_area,
            optimize_scr=self.optimize_scr,
            optimize_upe=self.optimize_upe,
            reconfigure_threshold=self.reconfigure_threshold,
            config=self.config,
            pcie=self.pcie,
            clock_hz=self.clock_hz,
            device_bandwidth=self._device_bandwidth_raw,
            mode=self.mode,
        )
        clone.name = self.name
        return clone

    def replicas(self, count: int) -> List["DynPreSystem"]:
        """Replicas that share their pure memos — the cost model, the latency,
        ``configured_for`` and candidate caches — with each other, never with
        this system, so a cluster's shards rank each shape once."""
        clones = [self.replicate() for _ in range(count)]
        first = clones[0]
        for clone in clones[1:]:
            clone.cost_model = first.cost_model
            clone._configured_cache = first._configured_cache
            clone._latency_cache = first._latency_cache
            clone._candidate_cache = first._candidate_cache
        return clones

    # ---------------------------------------------------------- configuration
    def _candidate_configs(self) -> List[HardwareConfig]:
        """Configurations reachable under the enabled ablation knobs
        (memoized on the loaded configuration)."""
        cached = self._candidate_cache.get(self.config)
        if cached is not None:
            return cached
        candidates = []
        for config in self.library.configurations():
            if not self.optimize_upe and (
                config.num_upes != self.config.num_upes
                or config.upe_width != self.config.upe_width
            ):
                continue
            if not self.optimize_scr and (
                config.num_scrs != self.config.num_scrs
                or config.scr_width != self.config.scr_width
            ):
                continue
            candidates.append(config)
        candidates = candidates or [self.config]
        self._candidate_cache[self.config] = candidates
        return candidates

    def _latency_with(self, config: HardwareConfig, workload: WorkloadProfile) -> float:
        """Predicted per-pass preprocessing latency under ``config``.

        The cost model of Table I ranks candidates quickly, but the final
        decision uses the variant's own latency model (which includes the
        device-DRAM bandwidth bound) so that a reconfiguration is only paid
        for when it actually shortens the pass.  Memoized on
        (configuration, workload shape): the model is pure given those.
        """
        cache_key = (config, workload.batch_key, workload.batch_size)
        cached = self._latency_cache.get(cache_key)
        if cached is not None:
            return cached
        saved = self.config
        try:
            self.config = config
            latency = self._compute_task_latencies(workload).total
        finally:
            self.config = saved
        self._latency_cache[cache_key] = latency
        return latency

    def choose_config(self, workload: WorkloadProfile) -> HardwareConfig:
        """Best candidate configuration for ``workload``.

        The Table I cost model pre-ranks the candidates; the best-ranked ones
        are then re-evaluated with the bandwidth-aware latency model.
        """
        params = workload.to_cost_params()
        ranked = self.cost_model.rank_configurations(params, self._candidate_configs())
        shortlist = [cfg for cfg, _ in ranked[:8]] + [self.config]
        return min(shortlist, key=lambda cfg: self._latency_with(cfg, workload))

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
        current_latency = self._latency_with(self.config, workload)
        if current_latency <= 0:
            result = True
        else:
            best = self.choose_config(workload)
            if best.key() == self.config.key():
                result = True
            else:
                best_latency = self._latency_with(best, workload)
                improvement = (current_latency - best_latency) / current_latency
                result = improvement < self.reconfigure_threshold
        self._configured_cache[cache_key] = result
        return result

    # ---------------------------------------------------------- serving state
    def state_key(self):
        """The loaded bitstream pair: the state a pass's outcome depends on."""
        return self.config

    def snapshot_state(self):
        """The configuration left loaded after the most recent pass."""
        return self.config

    def apply_state(self, snapshot) -> None:
        """Replay a cached transition's end state onto this replica.

        Routes the change through the reconfiguration controller so the
        event log stays faithful: the controller derives the affected
        regions and the reconfiguration latency purely from the (old, new)
        configuration pair, exactly as the fresh pass that populated the
        cache did.
        """
        # Identity first: hits replay the cluster's canonical snapshot object.
        if snapshot is self.config or snapshot is None or snapshot == self.config:
            return
        self.reconfig.reconfigure(snapshot)
        self.config = snapshot

    def reconfigure_for(self, workload: WorkloadProfile) -> float:
        """Reconfigure if the predicted improvement clears the threshold.

        Returns the reconfiguration latency charged to this pass (0 when the
        current configuration is kept).
        """
        current_latency = self._latency_with(self.config, workload)
        best = self.choose_config(workload)
        if best.key() == self.config.key() or current_latency <= 0:
            return 0.0
        best_latency = self._latency_with(best, workload)
        improvement = (current_latency - best_latency) / current_latency
        if improvement < self.reconfigure_threshold:
            return 0.0
        event = self.reconfig.reconfigure(best)
        self.config = best
        return event.latency_seconds if event else 0.0

    # -------------------------------------------------------------- evaluate
    def evaluate(self, workload: WorkloadProfile) -> SystemLatency:
        reconfig_seconds = self.reconfigure_for(workload)
        preprocessing = self._compute_task_latencies(workload)
        transfers = self._transfers(workload)
        return SystemLatency(
            preprocessing=preprocessing,
            transfers=transfers,
            reconfiguration=reconfig_seconds,
            bandwidth_utilization=self._bandwidth_utilization(workload, preprocessing),
            extras={"lut_utilization": self.lut_utilization(workload)},
        )


def make_dyn_ablations(
    board: FPGAResources = VPK180,
    base_config: Optional[HardwareConfig] = None,
) -> Dict[str, AutoGNNVariant]:
    """The Fig. 22 ablation ladder: StatPre, DynArea, DynSCR and DynUPE."""
    base = base_config or scaled_default_config(board)
    library = generate_bitstream_library(board)
    stat = StatPreSystem(config=base, board=board)
    dyn_area = DynPreSystem(
        library=library, board=board, config=base,
        optimize_area=True, optimize_scr=False, optimize_upe=False,
    )
    dyn_area.name = "DynArea"
    dyn_scr = DynPreSystem(
        library=library, board=board, config=base,
        optimize_area=True, optimize_scr=True, optimize_upe=False,
    )
    dyn_scr.name = "DynSCR"
    dyn_upe = DynPreSystem(
        library=library, board=board, config=base,
        optimize_area=True, optimize_scr=True, optimize_upe=True,
    )
    dyn_upe.name = "DynUPE"
    return {"StatPre": stat, "DynArea": dyn_area, "DynSCR": dyn_scr, "DynUPE": dyn_upe}
