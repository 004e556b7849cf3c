"""Existing single-function accelerators (Fig. 27).

The paper evaluates four published designs that each accelerate a single
preprocessing stage — a parallel hardware merge sorter, the Xilinx
insertion-sort application (ordering), an FPGA-HBM stream sampler and FLAG's
precomputation/vector-quantisation engine (selection) — in three deployments:

* ``Pure``: the accelerator alone occupies the whole FPGA; every other stage
  stays on the GPU, with the full host-GPU-FPGA transfer traffic.
* ``SCR``: the FPGA is split 30:70; AutoGNN's SCR occupies the 30 % region and
  accelerates reshaping and reindexing, the accelerator keeps the 70 % region.
* ``Auto``: the 70 % region is subdivided and AutoGNN's UPE is added to one
  half, enabling end-to-end preprocessing on the FPGA (akin to AutoPre).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional

from repro.analysis.metrics import TaskLatencies
from repro.system.base import PreprocessingSystem, SystemLatency
from repro.baselines.calibration import GPU_CALIBRATION
from repro.baselines.cpu import software_task_latencies
from repro.core.config import KERNEL_CLOCK_HZ, HardwareConfig, scaled_default_config
from repro.system.pcie import PCIeLink, TransferBreakdown
from repro.system.variants import task_cycles
from repro.system.workload import WorkloadProfile


class AcceleratorDeployment(Enum):
    """How a single-function accelerator is deployed on the FPGA (Fig. 27)."""

    PURE = "pure"
    WITH_SCR = "scr"
    AUTO = "auto"


@dataclass(frozen=True)
class AcceleratorSpec:
    """A published single-function accelerator.

    Attributes:
        key: short identifier used in benchmark output.
        description: one-line description of the design.
        stage: ``"ordering"`` or ``"sampling"`` — the stage it accelerates.
        speedup_vs_gpu: stage speedup over the DGL GPU baseline when the
            accelerator occupies the full FPGA.
    """

    key: str
    description: str
    stage: str
    speedup_vs_gpu: float


#: The four designs of Fig. 27.
MERGE_SORT = AcceleratorSpec(
    key="Merge",
    description="parallel hardware merge sorter (FCCM'16)",
    stage="ordering",
    speedup_vs_gpu=6.0,
)
INSERTION_SORT = AcceleratorSpec(
    key="Xilinx",
    description="Xilinx database-sorting application (insertion sort)",
    stage="ordering",
    speedup_vs_gpu=2.5,
)
STREAM_SAMPLER = AcceleratorSpec(
    key="FPGA",
    description="FPGA-HBM streaming GNN sampler (ASAP'24)",
    stage="sampling",
    speedup_vs_gpu=12.0,
)
FLAG = AcceleratorSpec(
    key="FLAG",
    description="FLAG low-latency GNN inference service (DAC'25)",
    stage="sampling",
    speedup_vs_gpu=8.0,
)

OTHER_ACCELERATORS: List[AcceleratorSpec] = [MERGE_SORT, INSERTION_SORT, STREAM_SAMPLER, FLAG]


class SingleFunctionAccelerator(PreprocessingSystem):
    """One published accelerator in one of the three Fig. 27 deployments.

    Stages the accelerator does not take run on the GPU
    (:data:`~repro.baselines.calibration.GPU_CALIBRATION`); AutoGNN's SCR and
    UPE stages are priced by :func:`~repro.system.variants.task_cycles` on
    ``base_config``.
    """

    def __init__(
        self,
        spec: AcceleratorSpec,
        deployment: AcceleratorDeployment = AcceleratorDeployment.PURE,
        pcie: Optional[PCIeLink] = None,
        base_config: Optional[HardwareConfig] = None,
    ) -> None:
        super().__init__(pcie=pcie)
        self.spec = spec
        self.deployment = deployment
        self.base_config = base_config or scaled_default_config()
        self.name = f"{spec.key}-{deployment.value}"

    # ----------------------------------------------------------------- model
    def _accelerator_area_fraction(self) -> float:
        """FPGA area available to the published accelerator in this deployment."""
        if self.deployment is AcceleratorDeployment.PURE:
            return 1.0
        if self.deployment is AcceleratorDeployment.WITH_SCR:
            return 0.7
        return 0.35  # AUTO: the 70 % region is split with AutoGNN's UPE

    def evaluate(self, workload: WorkloadProfile) -> SystemLatency:
        gpu = software_task_latencies(workload, GPU_CALIBRATION)
        stage_speedup = max(self.spec.speedup_vs_gpu * self._accelerator_area_fraction(), 1e-9)

        latencies = gpu.as_dict()
        if self.spec.stage == "ordering":
            latencies["ordering"] = gpu.ordering / stage_speedup
        else:
            latencies["selecting"] = gpu.selecting / stage_speedup
            latencies["reindexing"] = gpu.reindexing / stage_speedup

        transfers = TransferBreakdown()
        if self.deployment in (AcceleratorDeployment.PURE, AcceleratorDeployment.WITH_SCR):
            # Stages still split between GPU and FPGA: repeated handoffs.
            transfers.host_to_gpu = self.pcie.dma_main(workload.graph_bytes)
            transfers.gpu_to_accelerator = self.pcie.dma_main(workload.csc_bytes)
            transfers.accelerator_to_gpu = self.pcie.best_path(workload.subgraph_bytes)
        else:
            # End-to-end on the FPGA: only updates in, subgraph out.
            transfers.host_to_accelerator = self.pcie.best_path(workload.update_bytes)
            transfers.accelerator_to_gpu = self.pcie.best_path(workload.subgraph_bytes)

        if self.deployment is not AcceleratorDeployment.PURE:
            # AutoGNN's SCR takes reshaping and reindexing; under AUTO, its
            # UPE (half of the UPE region) also covers the stage the
            # published accelerator does not.
            half_upe = self.base_config.with_upe(num_upes=max(self.base_config.num_upes // 2, 1))
            ordering, reshaping, selecting, reindexing = (
                cycles / KERNEL_CLOCK_HZ
                for cycles in task_cycles(workload, half_upe, half_upe, self.base_config)
            )
            latencies["reshaping"] = reshaping
            latencies["reindexing"] = min(latencies["reindexing"], reindexing)
            if self.deployment is AcceleratorDeployment.AUTO:
                if self.spec.stage == "ordering":
                    latencies["selecting"] = selecting
                else:
                    latencies["ordering"] = ordering

        return SystemLatency(
            preprocessing=TaskLatencies.from_dict(latencies), transfers=transfers
        )
