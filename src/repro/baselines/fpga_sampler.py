"""FPGA: an FPGA-HBM streaming sampler (sampling-only accelerator).

The ``FPGA`` baseline (ASAP'24 streaming sampler) accelerates sampling ~12x
over the GPU baseline but implements *only* sampling: graph conversion still
runs on the GPU, so every pass moves the raw graph to the GPU, the converted
CSC from the GPU to the FPGA, and the sampled subgraph back — the transfer
traffic the paper measures at ~24.7 % of end-to-end latency.
"""

from __future__ import annotations

from repro.baselines.gpu import GPUPreprocessingSystem
from repro.system.pcie import TransferBreakdown
from repro.system.workload import WorkloadProfile


class FPGASamplerSystem(GPUPreprocessingSystem):
    """GPU graph conversion plus an FPGA-HBM streaming sampler."""

    name = "FPGA"
    power_platform = "fpga"
    sampling_speedup = 12.0

    def _transfers(self, workload: WorkloadProfile) -> TransferBreakdown:
        return TransferBreakdown(
            # Conversion runs on the GPU: upload the raw graph first.
            host_to_gpu=self.pcie.dma_main(workload.graph_bytes),
            # The converted CSC then moves from the GPU to the FPGA sampler.
            gpu_to_accelerator=self.pcie.dma_main(workload.csc_bytes),
            # The sampled subgraph returns to the GPU for inference.
            accelerator_to_gpu=self.pcie.best_path(workload.subgraph_bytes),
        )
