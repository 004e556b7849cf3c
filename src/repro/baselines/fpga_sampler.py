"""FPGA: an FPGA-HBM streaming sampler (sampling-only accelerator).

The ``FPGA`` baseline (ASAP'24 streaming sampler) accelerates sampling ~12x
over the GPU baseline but implements *only* sampling: graph conversion still
runs on the GPU, so every pass moves the raw graph to the GPU, the converted
CSC from the GPU to the FPGA, and the sampled subgraph back — the transfer
traffic the paper measures at ~24.7 % of end-to-end latency.
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
SAMPLING_SPEEDUP: float = 12.0


class FPGASamplerSystem(PreprocessingSystem):
    """GPU graph conversion plus an FPGA-HBM streaming sampler."""

    name = "FPGA"

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
            # Conversion runs on the GPU: upload the raw graph first.
            host_to_gpu=self.pcie.dma_main(workload.graph_bytes),
            # The converted CSC then moves from the GPU to the FPGA sampler.
            gpu_to_accelerator=self.pcie.dma_main(workload.csc_bytes),
            # The sampled subgraph returns to the GPU for inference.
            accelerator_to_gpu=self.pcie.best_path(workload.subgraph_bytes),
        )
        utilization = software_bandwidth_utilization(workload, preprocessing, self.calibration)
        return SystemLatency(
            preprocessing=preprocessing,
            transfers=transfers,
            bandwidth_utilization=utilization,
            extras={"sampling_speedup": self.sampling_speedup},
        )
