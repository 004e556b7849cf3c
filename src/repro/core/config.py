"""Hardware configuration and FPGA resource model.

The paper implements AutoGNN on a 7 nm Xilinx VPK180 (4.1 M LUTs), splits the
reconfigurable region 70:30 between UPEs and SCRs, and parameterises both
blocks by instance count and width (Section V-B, Table III).  This module
captures those knobs and the LUT cost of each block so configurations can be
validated against a board's resource budget.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

#: Clock frequency of the HW-kernel region (enterprise-FPGA class).
KERNEL_CLOCK_HZ: float = 300e6

#: Clock of the ICAP reconfiguration port (Section V-B).
ICAP_CLOCK_HZ: float = 100e6

#: Fraction of the reconfigurable region devoted to SCRs (Table III / Fig. 22).
DEFAULT_SCR_AREA_FRACTION: float = 0.30

#: Approximate LUT cost of a single UPE lane element.  One element of UPE width
#: needs a prefix-sum adder slice plus a relocation multiplexer column; the
#: constant is chosen so that the paper's reference configuration (240 UPEs of
#: width 64) roughly fills 70 % of a 4.1 M-LUT device.
LUTS_PER_UPE_ELEMENT: int = 180

#: Approximate LUT cost per SCR comparator lane (32-bit comparator + its share
#: of the adder/filter tree); sized so 8 SCR slots of width ~4096 fill the
#: 30 % region of the VPK180.
LUTS_PER_SCR_ELEMENT: int = 36


@dataclass(frozen=True)
class FPGAResources:
    """Physical resources of one FPGA board.

    Attributes:
        name: board name.
        luts: total LUT count.
        price_usd: street price used by the cost-effectiveness study (Fig. 26).
        bram_mbytes: on-chip SRAM available to the reindexer mapping bank.
        dram_gbytes: device DRAM for staged bitstreams and graph storage.
        dram_bandwidth: peak device-DRAM bandwidth in bytes/second (cheaper
            boards ship narrower memory interfaces, which bounds the streaming
            datapaths of AutoGNN).
    """

    name: str
    luts: int
    price_usd: float
    bram_mbytes: float = 64.0
    dram_gbytes: float = 16.0
    dram_bandwidth: float = 64e9

    def reconfigurable_luts(self, shell_fraction: float = 0.12) -> int:
        """LUTs available to the HW-kernel after subtracting the fixed shell."""
        return int(self.luts * (1.0 - shell_fraction))


#: The evaluation board used by the paper's prototype.
VPK180 = FPGAResources(name="VPK180", luts=4_100_000, price_usd=14_000.0)


@dataclass(frozen=True)
class HardwareConfig:
    """One concrete AutoGNN hardware configuration (a bitstream's parameters).

    Attributes:
        num_upes: number of UPE instances.
        upe_width: elements processed per UPE set-partition pass.
        num_scrs: number of SCR slots.
        scr_width: comparator lanes per SCR slot.
        scr_area_fraction: share of the reconfigurable region given to SCRs.
        board: the FPGA the configuration targets.
    """

    num_upes: int = 240
    upe_width: int = 64
    num_scrs: int = 1
    scr_width: int = 4096
    scr_area_fraction: float = DEFAULT_SCR_AREA_FRACTION
    board: FPGAResources = VPK180

    def __post_init__(self) -> None:
        if self.num_upes <= 0 or self.upe_width <= 0:
            raise ValueError("UPE count and width must be positive")
        if self.num_scrs <= 0 or self.scr_width <= 0:
            raise ValueError("SCR count and width must be positive")
        if not 0.0 < self.scr_area_fraction < 1.0:
            raise ValueError("scr_area_fraction must be in (0, 1)")
        if self.upe_width & (self.upe_width - 1):
            raise ValueError("upe_width must be a power of two")
        if self.scr_width & (self.scr_width - 1):
            raise ValueError("scr_width must be a power of two")

    # ------------------------------------------------------------- resources
    @property
    def upe_luts(self) -> int:
        """Total LUTs consumed by the UPE region."""
        return self.num_upes * self.upe_width * LUTS_PER_UPE_ELEMENT

    @property
    def scr_luts(self) -> int:
        """Total LUTs consumed by the SCR region."""
        return self.num_scrs * self.scr_width * LUTS_PER_SCR_ELEMENT

    @property
    def total_luts(self) -> int:
        """LUTs consumed by the whole HW-kernel."""
        return self.upe_luts + self.scr_luts

    def upe_region_budget(self) -> int:
        """LUT budget of the UPE reconfigurable region on the target board."""
        return int(self.board.reconfigurable_luts() * (1.0 - self.scr_area_fraction))

    def scr_region_budget(self) -> int:
        """LUT budget of the SCR reconfigurable region on the target board."""
        return int(self.board.reconfigurable_luts() * self.scr_area_fraction)

    def fits(self) -> bool:
        """True when both regions fit within their budgets."""
        return self.upe_luts <= self.upe_region_budget() and self.scr_luts <= self.scr_region_budget()

    def utilization(self) -> float:
        """Fraction of the reconfigurable LUTs the configuration occupies."""
        budget = self.board.reconfigurable_luts()
        return self.total_luts / budget if budget else 0.0

    # ----------------------------------------------------------- derivations
    def with_upe(self, num_upes: Optional[int] = None, upe_width: Optional[int] = None) -> "HardwareConfig":
        """Return a copy with the UPE parameters replaced."""
        return replace(
            self,
            num_upes=self.num_upes if num_upes is None else num_upes,
            upe_width=self.upe_width if upe_width is None else upe_width,
        )

    def with_scr(self, num_scrs: Optional[int] = None, scr_width: Optional[int] = None) -> "HardwareConfig":
        """Return a copy with the SCR parameters replaced."""
        return replace(
            self,
            num_scrs=self.num_scrs if num_scrs is None else num_scrs,
            scr_width=self.scr_width if scr_width is None else scr_width,
        )

    def key(self) -> str:
        """Stable identifier used to look up the matching bitstream."""
        return (
            f"upe{self.num_upes}x{self.upe_width}_scr{self.num_scrs}x{self.scr_width}"
            f"_area{int(self.scr_area_fraction * 100)}"
        )


def power_of_two_floor(value: int) -> int:
    """Largest power of two not above ``value`` (1 when ``value`` is below 1)."""
    return 1 << (max(value, 1).bit_length() - 1)


def max_upes_for_budget(budget_luts: int, upe_width: int) -> int:
    """Largest UPE count of the given width that fits in ``budget_luts``."""
    per_upe = upe_width * LUTS_PER_UPE_ELEMENT
    return max(budget_luts // per_upe, 1) if per_upe else 1


def max_scr_width_for_budget(budget_luts: int, num_scrs: int) -> int:
    """Largest power-of-two SCR width for ``num_scrs`` slots within the budget."""
    per_lane = num_scrs * LUTS_PER_SCR_ELEMENT
    if per_lane <= 0:
        return 1
    return power_of_two_floor(budget_luts // per_lane)


def scaled_default_config(board: FPGAResources = VPK180) -> HardwareConfig:
    """Paper-default configuration (Table III) scaled to fit ``board``.

    Uses the 70:30 UPE:SCR area split, UPE width 64 and a single SCR slot,
    maximising the UPE count and SCR width within the board's budget.
    """
    scr_fraction = DEFAULT_SCR_AREA_FRACTION
    reconfigurable = board.reconfigurable_luts()
    upe_budget = int(reconfigurable * (1.0 - scr_fraction))
    scr_budget = int(reconfigurable * scr_fraction)
    # Round the UPE count down to a power of two so the default configuration
    # coincides with one of the staged bitstream variants (Section V-B).
    num_upes = power_of_two_floor(max_upes_for_budget(upe_budget, 64))
    scr_width = max_scr_width_for_budget(scr_budget, 1)
    return HardwareConfig(
        num_upes=num_upes,
        upe_width=64,
        num_scrs=1,
        scr_width=scr_width,
        scr_area_fraction=scr_fraction,
        board=board,
    )


#: Default hardware configuration used across examples and benchmarks.
DEFAULT_HARDWARE = scaled_default_config()
