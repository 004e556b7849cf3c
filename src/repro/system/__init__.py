"""System layer: host integration, AutoGNN variants, power, boards, service.

This package models everything around the accelerator core: the PCIe/DMA
transfer paths, the power/energy model, the FPGA board catalogue used by
the cost-effectiveness study, the three AutoGNN system variants the paper
evaluates (AutoPre / StatPre / DynPre; DynPre holds the runtime
reconfiguration policy), and the GNN service that combines preprocessing,
transfers and inference into end-to-end latency.
"""

from repro.system.workload import WorkloadProfile
from repro.system.pcie import PCIeLink, TransferBreakdown
from repro.system.boards import FPGABoard, BOARD_CATALOG, GPU_REFERENCE_PRICE
from repro.system.power import PowerModel, EnergyReport
from repro.system.variants import (
    AutoGNNVariant,
    AutoPreSystem,
    StatPreSystem,
    DynPreSystem,
    tuned_config_for,
)
from repro.system.service import GNNService, ServiceReport, build_reference_systems

__all__ = [
    "WorkloadProfile",
    "PCIeLink",
    "TransferBreakdown",
    "FPGABoard",
    "BOARD_CATALOG",
    "GPU_REFERENCE_PRICE",
    "PowerModel",
    "EnergyReport",
    "AutoGNNVariant",
    "AutoPreSystem",
    "StatPreSystem",
    "DynPreSystem",
    "tuned_config_for",
    "GNNService",
    "ServiceReport",
    "build_reference_systems",
]
