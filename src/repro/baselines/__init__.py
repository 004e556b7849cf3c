"""Compared preprocessing systems.

The paper compares AutoGNN against four baselines (Section VI): CPU and GPU
preprocessing through DGL, the GPU-based gSampler (``GSamp``) and an
FPGA-HBM streaming sampler (``FPGA``), plus — in Fig. 27 — a set of
single-function accelerators (merge-sort, insertion-sort, stream sampler and
FLAG).  Every system implements the common :class:`~repro.system.base.
PreprocessingSystem` interface so the benchmark harness can sweep them
uniformly.
"""

from repro.system.base import PreprocessingSystem, SystemLatency
from repro.baselines.calibration import CPU_CALIBRATION, GPU_CALIBRATION, BaselineCalibration
from repro.baselines.cpu import CPUPreprocessingSystem
from repro.baselines.gpu import GPUPreprocessingSystem, GPUSerializationAnalysis
from repro.baselines.gsamp import GSampSystem
from repro.baselines.fpga_sampler import FPGASamplerSystem
from repro.baselines.other_accels import (
    SingleFunctionAccelerator,
    AcceleratorDeployment,
    OTHER_ACCELERATORS,
)

__all__ = [
    "PreprocessingSystem",
    "SystemLatency",
    "BaselineCalibration",
    "CPU_CALIBRATION",
    "GPU_CALIBRATION",
    "CPUPreprocessingSystem",
    "GPUPreprocessingSystem",
    "GPUSerializationAnalysis",
    "GSampSystem",
    "FPGASamplerSystem",
    "SingleFunctionAccelerator",
    "AcceleratorDeployment",
    "OTHER_ACCELERATORS",
]
