"""Compared preprocessing systems.

The paper compares AutoGNN against four baselines (Section VI): CPU and GPU
preprocessing through DGL, the GPU-based gSampler (``GSamp``) and an
FPGA-HBM streaming sampler (``FPGA``), plus — in Fig. 27 — a set of
single-function accelerators (merge-sort, insertion-sort, stream sampler and
FLAG).  Every system implements the common :class:`~repro.system.base.
PreprocessingSystem` interface so the benchmark harness can sweep them
uniformly.

The four baselines share one pass model,
:class:`~repro.baselines.cpu.SoftwarePreprocessingSystem`: per-task software
latencies from a fixed calibration (:mod:`repro.baselines.calibration`),
selection and reindexing divided by a fixed sampling speedup, and per-system
transfer hops.  GSamp and FPGA are the GPU baseline with a faster sampler.
The single-function accelerators price AutoGNN's SCR and UPE stages with
the variants' own cycle counts (:func:`repro.system.variants.task_cycles`).
"""

from repro.system.base import PreprocessingSystem, SystemLatency
from repro.baselines.calibration import CPU_CALIBRATION, GPU_CALIBRATION, BaselineCalibration
from repro.baselines.cpu import CPUPreprocessingSystem, SoftwarePreprocessingSystem
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
    "SoftwarePreprocessingSystem",
    "CPUPreprocessingSystem",
    "GPUPreprocessingSystem",
    "GPUSerializationAnalysis",
    "GSampSystem",
    "FPGASamplerSystem",
    "SingleFunctionAccelerator",
    "AcceleratorDeployment",
    "OTHER_ACCELERATORS",
]
