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
from typing import Dict, List, Optional

from repro.analysis.metrics import TaskLatencies
from repro.system.base import PreprocessingSystem, SystemLatency
from repro.baselines.calibration import GPU_CALIBRATION, BaselineCalibration
from repro.baselines.cpu import software_task_latencies
from repro.core.config import KERNEL_CLOCK_HZ, HardwareConfig, scaled_default_config
from repro.core.kernels import (
    ordering_cycle_count,
    reshaping_cycle_estimate,
    reindexing_cycle_estimate,
    selection_cycle_count,
)
from repro.system.pcie import PCIeLink, TransferBreakdown
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


def _autognn_scr_latencies(workload: WorkloadProfile, config: HardwareConfig) -> Dict[str, float]:
    """Reshaping + reindexing latency when AutoGNN's SCR handles them."""
    reshaping_cycles = reshaping_cycle_estimate(workload.num_edges, workload.num_nodes, config)
    reindexing_cycles = reindexing_cycle_estimate(
        2 * workload.sampled_edges, workload.per_seed_subgraph_nodes, config
    )
    return {
        "reshaping": reshaping_cycles / KERNEL_CLOCK_HZ,
        "reindexing": reindexing_cycles / KERNEL_CLOCK_HZ,
    }


def _autognn_upe_latencies(
    workload: WorkloadProfile, config: HardwareConfig
) -> Dict[str, float]:
    """Ordering + selection latency when AutoGNN's UPE handles them."""
    ordering_cycles = ordering_cycle_count(workload.num_edges, workload.num_nodes, config)
    arrays = max(workload.total_selections // max(workload.k, 1), 1)
    selecting_cycles = selection_cycle_count(workload.total_selections, arrays, config)
    return {
        "ordering": ordering_cycles / KERNEL_CLOCK_HZ,
        "selecting": selecting_cycles / KERNEL_CLOCK_HZ,
    }


class SingleFunctionAccelerator(PreprocessingSystem):
    """One published accelerator in one of the three Fig. 27 deployments."""

    def __init__(
        self,
        spec: AcceleratorSpec,
        deployment: AcceleratorDeployment = AcceleratorDeployment.PURE,
        calibration: BaselineCalibration = GPU_CALIBRATION,
        pcie: Optional[PCIeLink] = None,
        base_config: Optional[HardwareConfig] = None,
    ) -> None:
        super().__init__(pcie=pcie)
        self.spec = spec
        self.deployment = deployment
        self.calibration = calibration
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
        gpu = software_task_latencies(workload, self.calibration)
        area = self._accelerator_area_fraction()
        stage_speedup = self.spec.speedup_vs_gpu * area

        latencies = gpu.as_dict()
        if self.spec.stage == "ordering":
            latencies["ordering"] = gpu.ordering / max(stage_speedup, 1e-9)
        else:
            latencies["selecting"] = gpu.selecting / max(stage_speedup, 1e-9)
            latencies["reindexing"] = gpu.reindexing / max(stage_speedup, 1e-9)

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

        if self.deployment in (AcceleratorDeployment.WITH_SCR, AcceleratorDeployment.AUTO):
            scr_config = self.base_config
            scr = _autognn_scr_latencies(workload, scr_config)
            latencies["reshaping"] = scr["reshaping"]
            latencies["reindexing"] = min(latencies["reindexing"], scr["reindexing"])

        if self.deployment is AcceleratorDeployment.AUTO:
            # AutoGNN's UPE (half of the UPE region) covers the stage the
            # published accelerator does not.
            half_upe = self.base_config.with_upe(num_upes=max(self.base_config.num_upes // 2, 1))
            upe = _autognn_upe_latencies(workload, half_upe)
            if self.spec.stage == "ordering":
                latencies["selecting"] = upe["selecting"]
            else:
                latencies["ordering"] = upe["ordering"]

        preprocessing = TaskLatencies.from_dict(latencies)
        return SystemLatency(
            preprocessing=preprocessing,
            transfers=transfers,
            extras={
                "deployment": float(list(AcceleratorDeployment).index(self.deployment)),
                "stage_speedup": stage_speedup,
            },
        )

