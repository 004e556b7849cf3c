"""Pre-compiled bitstream library.

AutoGNN never synthesises hardware at runtime; it selects among a small set of
pre-compiled bitstreams staged in device DRAM (Section V-B).  Starting from a
single large UPE (and a single large SCR) the generator iteratively halves the
width and doubles the instance count, producing roughly ten variants per
block on the evaluation board.  The two blocks live in separate reconfigurable
regions with a fixed 70:30 area split, so UPE and SCR variants can be
reprogrammed independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.config import (
    DEFAULT_SCR_AREA_FRACTION,
    FPGAResources,
    HardwareConfig,
    LUTS_PER_SCR_ELEMENT,
    LUTS_PER_UPE_ELEMENT,
    VPK180,
    power_of_two_floor,
)

#: Size of one partial bitstream file staged in device DRAM (Section V-B).
BITSTREAM_BYTES: int = 50 * 1024 * 1024

#: Smallest practical UPE width (two elements are needed for a partition).
MIN_UPE_WIDTH: int = 8

#: Smallest practical SCR width.
MIN_SCR_WIDTH: int = 2


@dataclass(frozen=True)
class Bitstream:
    """One pre-compiled partial bitstream.

    Attributes:
        region: ``"upe"`` or ``"scr"`` — which reconfigurable region it targets.
        count: instance count of the block.
        width: per-instance width.
        size_bytes: staged size in device DRAM.
    """

    region: str
    count: int
    width: int
    size_bytes: int = BITSTREAM_BYTES

    @property
    def key(self) -> str:
        """Stable identifier (used by the host library to request loading)."""
        return f"{self.region}_{self.count}x{self.width}"


@dataclass(frozen=True)
class BitstreamLibrary:
    """The set of staged bitstreams plus the fixed region split they assume."""

    upe_variants: Tuple[Bitstream, ...] = ()
    scr_variants: Tuple[Bitstream, ...] = ()
    scr_area_fraction: float = DEFAULT_SCR_AREA_FRACTION
    board: FPGAResources = VPK180

    @property
    def total_bytes(self) -> int:
        """DRAM footprint of all staged bitstreams."""
        return sum(b.size_bytes for b in self.upe_variants + self.scr_variants)

    @property
    def num_variants(self) -> int:
        """Total number of staged bitstreams."""
        return len(self.upe_variants) + len(self.scr_variants)

    def find(self, region: str, count: int, width: int) -> Optional[Bitstream]:
        """Look up a staged bitstream by its parameters; ``None`` when absent."""
        pool = self.upe_variants if region == "upe" else self.scr_variants
        for bs in pool:
            if bs.count == count and bs.width == width:
                return bs
        return None

    def configurations(self) -> List[HardwareConfig]:
        """Every UPE x SCR combination expressible with the staged bitstreams."""
        return [self.config_for(upe, scr) for upe in self.upe_variants for scr in self.scr_variants]

    def config_for(self, upe: Bitstream, scr: Bitstream) -> HardwareConfig:
        """Build the :class:`HardwareConfig` for a specific bitstream pair."""
        return HardwareConfig(
            num_upes=upe.count,
            upe_width=upe.width,
            num_scrs=scr.count,
            scr_width=scr.width,
            scr_area_fraction=self.scr_area_fraction,
            board=self.board,
        )


def _halving_series(
    region: str, budget_elements: int, min_width: int, max_variants: int
) -> Tuple[Bitstream, ...]:
    """One block as wide as ``budget_elements`` allows (a power of two), then
    each variant halves the width and doubles the count, down to
    ``min_width`` or ``max_variants`` variants."""
    widest = power_of_two_floor(budget_elements)
    return tuple(
        Bitstream(region=region, count=1 << i, width=widest >> i)
        for i in range(max_variants)
        if widest >> i >= min_width
    )


def generate_bitstream_library(
    board: FPGAResources = VPK180,
    scr_area_fraction: float = DEFAULT_SCR_AREA_FRACTION,
    max_variants_per_region: int = 10,
) -> BitstreamLibrary:
    """Generate the width-halving / count-doubling bitstream series.

    The first UPE variant is a single UPE as wide as the UPE region allows;
    each subsequent variant halves the width and doubles the count, keeping
    the LUT footprint roughly constant, until the width floor or the variant
    cap is reached.  The SCR series is produced the same way in its region.
    """
    reconfigurable = board.reconfigurable_luts()
    upe_budget = int(reconfigurable * (1.0 - scr_area_fraction))
    scr_budget = int(reconfigurable * scr_area_fraction)
    return BitstreamLibrary(
        upe_variants=_halving_series(
            "upe", upe_budget // LUTS_PER_UPE_ELEMENT, MIN_UPE_WIDTH, max_variants_per_region
        ),
        scr_variants=_halving_series(
            "scr", scr_budget // LUTS_PER_SCR_ELEMENT, MIN_SCR_WIDTH, max_variants_per_region
        ),
        scr_area_fraction=scr_area_fraction,
        board=board,
    )
