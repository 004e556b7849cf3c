"""GPU (DGL on the RTX 3090) preprocessing baseline.

The GPU executes ordering massively in parallel but the remaining tasks are
throttled by atomics and synchronisation (Section III, Fig. 10).  Because the
GPU's memory must be released for model execution, the full graph is fetched
from the host again before every preprocessing pass (Section VI-B), which is
the dominant transfer cost the paper charges to this baseline.
"""

from __future__ import annotations

from typing import Dict

from repro.analysis.metrics import TaskLatencies, breakdown_percentages
from repro.baselines.calibration import GPU_CALIBRATION
from repro.baselines.cpu import (
    SoftwarePreprocessingSystem,
    software_bandwidth_utilization,
    software_task_latencies,
)
from repro.system.pcie import TransferBreakdown
from repro.system.workload import WorkloadProfile


class GPUPreprocessingSystem(SoftwarePreprocessingSystem):
    """DGL preprocessing on the GPU that also runs inference."""

    name = "GPU"
    power_platform = "gpu"
    calibration = GPU_CALIBRATION

    def _transfers(self, workload: WorkloadProfile) -> TransferBreakdown:
        # The whole graph is re-uploaded before every preprocessing pass.
        return TransferBreakdown(host_to_gpu=self.pcie.dma_main(workload.graph_bytes))


class GPUSerializationAnalysis:
    """Reproduces the serialized-computation analysis of Fig. 10.

    Even with the redesigned set-partitioning / set-counting kernels, the GPU
    must synchronise shared counters and map structures; the serialized share
    of execution and its split across the three non-parallelizable tasks are
    derived from the per-task latencies of the GPU calibration.
    """

    #: Fraction of each task's execution that requires serialization on a GPU.
    TASK_SERIAL_FRACTION: Dict[str, float] = {
        "ordering": 0.02,  # radix sort parallelises almost completely
        "reshaping": 0.72,  # pointer-array counters need atomics
        "selecting": 0.78,  # uniqueness set is shared state
        "reindexing": 0.80,  # mapping table is shared state
    }

    def serialized_seconds(self, latencies: TaskLatencies) -> Dict[str, float]:
        """Serialized execution time contributed by each task."""
        values = latencies.as_dict()
        return {
            task: values[task] * self.TASK_SERIAL_FRACTION[task]
            for task in values
        }

    def serialized_fraction(self, latencies: TaskLatencies) -> float:
        """Overall serialized share of the preprocessing execution (Fig. 10a)."""
        total = latencies.total
        if total <= 0:
            return 0.0
        return sum(self.serialized_seconds(latencies).values()) / total

    def serial_task_split(self, latencies: TaskLatencies) -> Dict[str, float]:
        """Percentage contribution of selection/reshaping/reindexing to the
        serialized time (Fig. 10b); ordering is excluded as in the paper."""
        serial = self.serialized_seconds(latencies)
        serial.pop("ordering", None)
        return breakdown_percentages(serial)

    def analyze(self, workload: WorkloadProfile) -> Dict[str, float]:
        """Full Fig. 10 analysis for one workload."""
        latencies = software_task_latencies(workload, GPU_CALIBRATION)
        result = {"serialized_fraction": self.serialized_fraction(latencies)}
        for task, share in self.serial_task_split(latencies).items():
            result[f"serial_share_{task}"] = share
        result["bandwidth_utilization"] = software_bandwidth_utilization(
            workload, latencies, GPU_CALIBRATION
        )
        return result
