"""CPU (DGL on the host Xeon) preprocessing baseline.

Functionally the CPU baseline is the reference pipeline; its timing model uses
the :data:`~repro.baselines.calibration.CPU_CALIBRATION` throughput constants.
The CPU keeps the graph in host memory, so the only transfer is shipping the
sampled subgraph (plus gathered features) to the GPU for inference.

This module also holds the pass model every software baseline shares
(:class:`SoftwarePreprocessingSystem`): the GPU, GSamp and FPGA baselines
differ from the CPU only in calibration, sampling speedup and transfers.
"""

from __future__ import annotations

from abc import abstractmethod

from repro.analysis.metrics import TaskLatencies
from repro.system.base import PreprocessingSystem, SystemLatency
from repro.baselines.calibration import CPU_CALIBRATION, BaselineCalibration
from repro.system.pcie import TransferBreakdown
from repro.system.workload import WorkloadProfile


def software_task_latencies(
    workload: WorkloadProfile, calibration: BaselineCalibration
) -> TaskLatencies:
    """Per-task latency of a software (CPU/GPU) preprocessing implementation.

    * Ordering sorts every edge: ``e / ordering_rate``.
    * Reshaping scans the sorted edge array once: ``e / reshaping_rate``.
    * Selection performs ``s`` unique draws, each paying a fixed cost plus a
      per-neighbour component proportional to the average degree.
    * Reindexing performs two map lookups per sampled edge.
    """
    e = workload.num_edges
    s = workload.total_selections
    ordering = calibration.ordering_fixed_seconds + e / calibration.ordering_edges_per_second
    reshaping = calibration.reshaping_fixed_seconds + e / calibration.reshaping_edges_per_second
    selecting = s * (
        calibration.selection_seconds_per_draw
        + workload.avg_degree * calibration.selection_seconds_per_neighbor
    )
    reindexing = 2 * workload.sampled_edges * calibration.reindexing_seconds_per_endpoint
    return TaskLatencies(
        ordering=ordering,
        reshaping=reshaping,
        selecting=selecting,
        reindexing=reindexing,
    )


def software_bandwidth_utilization(
    workload: WorkloadProfile,
    latencies: TaskLatencies,
    calibration: BaselineCalibration,
) -> float:
    """Sustained fraction of peak DRAM bandwidth for a software implementation."""
    if latencies.total <= 0:
        return 0.0
    bytes_moved = (
        workload.graph_bytes * 3  # read for sort, write sorted, read for reshape
        + workload.subgraph_bytes
    ) * calibration.access_amplification
    achieved = bytes_moved / latencies.total
    return min(achieved / calibration.memory_bandwidth, 1.0)


class SoftwarePreprocessingSystem(PreprocessingSystem):
    """A preprocessing pass priced by :func:`software_task_latencies`.

    A subclass sets its :attr:`calibration`, the :attr:`sampling_speedup` an
    accelerated sampler gives selection and reindexing, and the hops it
    moves data over (:meth:`_transfers`).
    """

    #: Throughput constants of the platform that runs the pass.
    calibration: BaselineCalibration

    #: Speedup of the sampling stage (selection + reindexing) over the
    #: software model; 1.0 for plain DGL, where dividing by it is exact.
    sampling_speedup: float = 1.0

    @abstractmethod
    def _transfers(self, workload: WorkloadProfile) -> TransferBreakdown:
        """The data movement one pass of ``workload`` pays."""

    def evaluate(self, workload: WorkloadProfile) -> SystemLatency:
        software = software_task_latencies(workload, self.calibration)
        preprocessing = TaskLatencies(
            ordering=software.ordering,
            reshaping=software.reshaping,
            selecting=software.selecting / self.sampling_speedup,
            reindexing=software.reindexing / self.sampling_speedup,
        )
        return SystemLatency(
            preprocessing=preprocessing,
            transfers=self._transfers(workload),
            bandwidth_utilization=software_bandwidth_utilization(
                workload, preprocessing, self.calibration
            ),
        )


class CPUPreprocessingSystem(SoftwarePreprocessingSystem):
    """DGL preprocessing on the host CPU."""

    name = "CPU"
    power_platform = "cpu"
    calibration = CPU_CALIBRATION

    def _transfers(self, workload: WorkloadProfile) -> TransferBreakdown:
        # Only the sampled subgraph and its features move to the GPU.
        return TransferBreakdown(host_to_gpu=self.pcie.best_path(workload.subgraph_bytes))
