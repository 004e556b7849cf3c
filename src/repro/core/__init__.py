"""AutoGNN core: the paper's primary contribution.

This package models the AutoGNN FPGA accelerator: Unified Processing Elements
(UPEs) implementing set-partitioning with prefix-sum + relocation logic,
Single-Cycle Reducers (SCRs) implementing set-counting with comparator banks
and adder/filter trees, the UPE/SCR kernels that orchestrate them, the
pre-compiled bitstream library with partial reconfiguration, the analytic cost
model of Table I, and the end-to-end device (Fig. 14) that runs the whole
preprocessing workflow and reports cycle-accurate task latencies.
"""

from repro.core.config import (
    HardwareConfig,
    FPGAResources,
    VPK180,
    KERNEL_CLOCK_HZ,
    DEFAULT_HARDWARE,
)
from repro.core.upe import UPE, PrefixSumLogic, RelocationLogic, SetPartitionResult
from repro.core.merge import upe_merge, upe_merge_sort
from repro.core.scr import (
    SCR,
    ComparatorBank,
    AdderTree,
    FilterTree,
    Reshaper,
    Reindexer,
)
from repro.core.kernels import UPEKernel, SCRKernel
from repro.core.cost_model import CostModel, WorkloadParams, CostEstimate
from repro.core.bitstream import Bitstream, BitstreamLibrary, generate_bitstream_library
from repro.core.reconfig import ReconfigurationController, ReconfigurationEvent
from repro.core.accelerator import AutoGNNDevice, PreprocessingTiming

__all__ = [
    "HardwareConfig",
    "FPGAResources",
    "VPK180",
    "KERNEL_CLOCK_HZ",
    "DEFAULT_HARDWARE",
    "UPE",
    "PrefixSumLogic",
    "RelocationLogic",
    "SetPartitionResult",
    "upe_merge",
    "upe_merge_sort",
    "SCR",
    "ComparatorBank",
    "AdderTree",
    "FilterTree",
    "Reshaper",
    "Reindexer",
    "UPEKernel",
    "SCRKernel",
    "CostModel",
    "WorkloadParams",
    "CostEstimate",
    "Bitstream",
    "BitstreamLibrary",
    "generate_bitstream_library",
    "ReconfigurationController",
    "ReconfigurationEvent",
    "AutoGNNDevice",
    "PreprocessingTiming",
]
