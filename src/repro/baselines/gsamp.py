"""GSamp: gSampler-style GPU-accelerated graph sampling.

gSampler (SOSP'23) compiles matrix-centric sampling APIs through a data-flow
IR with kernel fusion and super-batching; the paper reports it accelerates the
sampling stage by ~7.5x over the DGL GPU baseline while graph conversion still
runs through the regular GPU path.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.metrics import TaskLatencies
from repro.system.base import PreprocessingSystem, SystemLatency
from repro.baselines.calibration import GPU_CALIBRATION, BaselineCalibration
from repro.baselines.cpu import software_bandwidth_utilization, software_task_latencies
from repro.system.pcie import PCIeLink, TransferBreakdown
from repro.system.workload import WorkloadProfile

#: Speedup of the sampling stage (selection + reindexing) over the GPU baseline.
SAMPLING_SPEEDUP: float = 7.5


class GSampSystem(PreprocessingSystem):
    """GPU preprocessing with gSampler-accelerated sampling."""

    name = "GSamp"
    power_platform = "gpu"

    def __init__(
        self,
        sampling_speedup: float = SAMPLING_SPEEDUP,
        calibration: BaselineCalibration = GPU_CALIBRATION,
        pcie: Optional[PCIeLink] = None,
    ) -> None:
        super().__init__(pcie=pcie)
        if sampling_speedup <= 0:
            raise ValueError("sampling_speedup must be positive")
        self.sampling_speedup = sampling_speedup
        self.calibration = calibration

    def evaluate(self, workload: WorkloadProfile) -> SystemLatency:
        gpu = software_task_latencies(workload, self.calibration)
        preprocessing = TaskLatencies(
            ordering=gpu.ordering,
            reshaping=gpu.reshaping,
            selecting=gpu.selecting / self.sampling_speedup,
            reindexing=gpu.reindexing / self.sampling_speedup,
        )
        transfers = TransferBreakdown(
            host_to_gpu=self.pcie.dma_main(workload.graph_bytes),
        )
        utilization = software_bandwidth_utilization(workload, preprocessing, self.calibration)
        return SystemLatency(
            preprocessing=preprocessing,
            transfers=transfers,
            bandwidth_utilization=utilization,
            extras={"sampling_speedup": self.sampling_speedup},
        )
