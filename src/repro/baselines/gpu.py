"""GPU (DGL on the RTX 3090) preprocessing baseline.

The GPU executes ordering massively in parallel but the remaining tasks are
throttled by atomics and synchronisation (Section III, Fig. 10).  Because the
GPU's memory must be released for model execution, the full graph is fetched
from the host again before every preprocessing pass (Section VI-B), which is
the dominant transfer cost the paper charges to this baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.analysis.metrics import TaskLatencies, breakdown_percentages
from repro.system.base import PreprocessingSystem, SystemLatency
from repro.baselines.calibration import GPU_CALIBRATION, BaselineCalibration
from repro.baselines.cpu import software_bandwidth_utilization, software_task_latencies
from repro.system.pcie import PCIeLink, TransferBreakdown
from repro.system.workload import WorkloadProfile


class GPUPreprocessingSystem(PreprocessingSystem):
    """DGL preprocessing on the GPU that also runs inference."""

    name = "GPU"
    power_platform = "gpu"

    def __init__(
        self,
        calibration: BaselineCalibration = GPU_CALIBRATION,
        pcie: Optional[PCIeLink] = None,
    ) -> None:
        super().__init__(pcie=pcie)
        self.calibration = calibration

    def evaluate(self, workload: WorkloadProfile) -> SystemLatency:
        preprocessing = software_task_latencies(workload, self.calibration)
        transfers = TransferBreakdown(
            # The whole graph is re-uploaded before every preprocessing pass.
            host_to_gpu=self.pcie.dma_main(workload.graph_bytes),
        )
        utilization = software_bandwidth_utilization(workload, preprocessing, self.calibration)
        return SystemLatency(
            preprocessing=preprocessing,
            transfers=transfers,
            bandwidth_utilization=utilization,
            extras={"serialized_fraction": self.calibration.serialized_fraction},
        )


@dataclass
class GPUSerializationAnalysis:
    """Reproduces the serialized-computation analysis of Fig. 10.

    Even with the redesigned set-partitioning / set-counting kernels, the GPU
    must synchronise shared counters and map structures; the serialized share
    of execution and its split across the three non-parallelizable tasks are
    derived from the per-task latencies.
    """

    calibration: BaselineCalibration = GPU_CALIBRATION

    #: Fraction of each task's execution that requires serialization on a GPU.
    TASK_SERIAL_FRACTION: Dict[str, float] = None  # set in __post_init__

    def __post_init__(self) -> None:
        if self.TASK_SERIAL_FRACTION is None:
            self.TASK_SERIAL_FRACTION = {
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
        latencies = software_task_latencies(workload, self.calibration)
        result = {"serialized_fraction": self.serialized_fraction(latencies)}
        for task, share in self.serial_task_split(latencies).items():
            result[f"serial_share_{task}"] = share
        result["bandwidth_utilization"] = software_bandwidth_utilization(
            workload, latencies, self.calibration
        )
        return result
