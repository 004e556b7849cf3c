"""The AutoGNN device: end-to-end preprocessing workflow in hardware.

Ties the UPE and SCR kernels together and executes the complete workflow of
Fig. 14: COO-to-CSC conversion of the input graph (edge ordering + data
reshaping), unique random selection over the CSC, subgraph reindexing, and
finally conversion of the reindexed subgraph back to CSC for the GNN.  The
device reports per-task cycle counts, wall-clock latency at the kernel clock,
and the memory traffic it generated (used for the bandwidth-utilisation
analysis of Fig. 18).  Selection draws through the same node-wise sampler as
:func:`repro.preprocessing.preprocess`, so the device, with or without its
datapath emulation, returns the software pipeline's exact result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.core.config import DEFAULT_HARDWARE, HardwareConfig, KERNEL_CLOCK_HZ
from repro.core.kernels import SCRKernel, UPEKernel
from repro.graph.coo import COOGraph
from repro.preprocessing.pipeline import (
    PreprocessingConfig,
    PreprocessingResult,
    choose_batch_nodes,
)

#: Peak DRAM bandwidth of the device memory interface (bytes/second).  The
#: evaluation board's DDR interface is in the tens of GB/s; 64 GB/s is used as
#: the reference peak for the utilisation metric.
DEVICE_PEAK_BANDWIDTH: float = 64e9

#: Bytes per edge of COO traffic (two 32-bit VIDs).
BYTES_PER_EDGE: int = 8

#: Bytes per pointer-array entry.
BYTES_PER_POINTER: int = 8


@dataclass
class PreprocessingTiming:
    """Cycle and latency accounting of one preprocessing run.

    Attributes:
        ordering_cycles: cycles spent on edge ordering (full graph + subgraph).
        reshaping_cycles: cycles spent on data reshaping (full graph + subgraph).
        selecting_cycles: cycles spent on unique random selection.
        reindexing_cycles: cycles spent on subgraph reindexing.
        clock_hz: kernel clock used to convert cycles to seconds.
        bytes_read: DRAM bytes read while preprocessing.
        bytes_written: DRAM bytes written while preprocessing.
    """

    ordering_cycles: int = 0
    reshaping_cycles: int = 0
    selecting_cycles: int = 0
    reindexing_cycles: int = 0
    clock_hz: float = KERNEL_CLOCK_HZ
    bytes_read: int = 0
    bytes_written: int = 0

    @property
    def total_cycles(self) -> int:
        """Total preprocessing cycles."""
        return (
            self.ordering_cycles
            + self.reshaping_cycles
            + self.selecting_cycles
            + self.reindexing_cycles
        )

    @property
    def total_seconds(self) -> float:
        """Preprocessing latency in seconds at the kernel clock."""
        return self.total_cycles / self.clock_hz

    def breakdown(self) -> Dict[str, int]:
        """Per-task cycle counts keyed by the paper's task names."""
        return {
            "ordering": self.ordering_cycles,
            "reshaping": self.reshaping_cycles,
            "selecting": self.selecting_cycles,
            "reindexing": self.reindexing_cycles,
        }

    def bandwidth_utilization(self, peak_bandwidth: float = DEVICE_PEAK_BANDWIDTH) -> float:
        """Fraction of peak DRAM bandwidth sustained during preprocessing."""
        if self.total_seconds <= 0:
            return 0.0
        achieved = (self.bytes_read + self.bytes_written) / self.total_seconds
        return min(achieved / peak_bandwidth, 1.0)


@dataclass
class AcceleratedPreprocessing:
    """Functional result plus timing of one AutoGNN preprocessing run."""

    result: PreprocessingResult
    timing: PreprocessingTiming
    config: HardwareConfig


class AutoGNNDevice:
    """Functional + cycle-level model of the AutoGNN accelerator.

    Args:
        config: hardware configuration (UPE/SCR count and width).
        detailed: emulate the datapaths element by element (slow, used by the
            correctness tests); the default fast path produces the identical
            sample, subgraph and cycle counts through vectorised execution.
        clock_hz: kernel clock frequency.
    """

    def __init__(
        self,
        config: HardwareConfig = DEFAULT_HARDWARE,
        detailed: bool = False,
        clock_hz: float = KERNEL_CLOCK_HZ,
    ) -> None:
        self.config = config
        self.detailed = detailed
        self.clock_hz = clock_hz
        self.upe_kernel = UPEKernel(config, detailed=detailed)
        self.scr_kernel = SCRKernel(config, detailed=detailed)

    # ----------------------------------------------------------------- steps
    def convert(self, graph: COOGraph) -> tuple:
        """COO-to-CSC conversion: edge ordering followed by data reshaping.

        Returns ``(ordered_coo, csc, ordering_cycles, reshaping_cycles)``.
        """
        ordered, ordering_cycles = self.upe_kernel.edge_ordering(graph)
        csc, reshaping_cycles = self.scr_kernel.data_reshaping(ordered)
        return ordered, csc, ordering_cycles, reshaping_cycles

    # ------------------------------------------------------------- end-to-end
    def preprocess(
        self,
        graph: COOGraph,
        config: Optional[PreprocessingConfig] = None,
        batch_nodes: Optional[Sequence[int]] = None,
    ) -> AcceleratedPreprocessing:
        """Run the full preprocessing workflow of Fig. 14 on ``graph``."""
        workload = config or PreprocessingConfig()
        timing = PreprocessingTiming(clock_hz=self.clock_hz)

        # 1. Graph conversion of the input graph.
        ordered, csc, ordering_cycles, reshaping_cycles = self.convert(graph)
        timing.ordering_cycles += ordering_cycles
        timing.reshaping_cycles += reshaping_cycles
        timing.bytes_read += graph.num_edges * BYTES_PER_EDGE * 2  # sort passes
        timing.bytes_written += graph.num_edges * BYTES_PER_EDGE
        timing.bytes_written += (graph.num_nodes + 1) * BYTES_PER_POINTER

        # 2. Unique random selection over the CSC.
        if batch_nodes is None:
            batch_nodes = choose_batch_nodes(graph, workload)
        sample, selecting_cycles = self.upe_kernel.unique_random_selection(
            csc, batch_nodes, workload.k, workload.num_layers, seed=workload.seed
        )
        timing.selecting_cycles += selecting_cycles
        timing.bytes_read += sample.num_sampled_edges * BYTES_PER_EDGE

        # 3. Subgraph reindexing.
        reindex, reindexing_cycles = self.scr_kernel.subgraph_reindexing(sample)
        timing.reindexing_cycles += reindexing_cycles
        timing.bytes_written += reindex.edges.num_edges * BYTES_PER_EDGE

        # 4. The reindexed subgraph undergoes ordering + reshaping once more to
        #    produce the final CSC handed to the GNN (Section II-B).
        sub_ordered, sub_ordering_cycles = self.upe_kernel.edge_ordering(reindex.edges)
        sub_csc, sub_reshaping_cycles = self.scr_kernel.data_reshaping(sub_ordered)
        timing.ordering_cycles += sub_ordering_cycles
        timing.reshaping_cycles += sub_reshaping_cycles
        timing.bytes_read += reindex.edges.num_edges * BYTES_PER_EDGE
        timing.bytes_written += reindex.edges.num_edges * BYTES_PER_EDGE

        result = PreprocessingResult(
            ordered=ordered,
            csc=csc,
            sample=sample,
            reindex=reindex,
            subgraph_csc=sub_csc,
        )
        return AcceleratedPreprocessing(result=result, timing=timing, config=self.config)

    # -------------------------------------------------------------- utilities
    def reconfigure(self, config: HardwareConfig) -> None:
        """Swap in a new hardware configuration (kernels are rebuilt)."""
        self.config = config
        self.upe_kernel = UPEKernel(config, detailed=self.detailed)
        self.scr_kernel = SCRKernel(config, detailed=self.detailed)
