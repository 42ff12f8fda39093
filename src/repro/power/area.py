"""Area-overhead accounting (Section IV-A).

The paper reports, for a 1 mm^2 tile in 12 nm: 0.49% for the TDC plus
coin-exchange logic, 0.04% for the ring oscillator, and 0.01-0.03% for
the LDO — under 1% total, versus 36%/16%/17% for switched-capacitor
designs [51][56][61], 1.4% for a plain digital LDO [54] and 4.5% for an
LDO-based UVFR [62].  This module encodes those numbers as a model so
the comparison (and its scaling with tile size) is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple


class AreaError(ValueError):
    """Raised for invalid area queries."""


#: Absolute block areas (mm^2) behind the paper's 1 mm^2-tile percentages.
BLITZCOIN_BLOCK_AREAS_MM2: Dict[str, float] = {
    "tdc_and_coin_logic": 0.0049,
    "ring_oscillator": 0.0004,
    "ldo": 0.0002,  # midpoint of the 0.01-0.03% range
}

#: Published per-tile overheads of prior regulator designs (fraction of
#: a 1 mm^2 tile), Section IV-A.
PRIOR_ART_OVERHEADS: Dict[str, float] = {
    "switched-cap UVFR [51]": 0.36,
    "switched-cap [56]": 0.16,
    "switched-cap [61]": 0.17,
    "digital LDO [54]": 0.014,
    "LDO UVFR [62]": 0.045,
}


@dataclass(frozen=True)
class TileAreaBudget:
    """Overhead of the full BlitzCoin kit in a tile of given size.

    The PM blocks have (approximately) fixed area, so their fractional
    overhead shrinks in larger tiles and grows in smaller ones — the
    replication-cost argument for keeping the kit tiny.
    """

    tile_area_mm2: float

    def __post_init__(self) -> None:
        if self.tile_area_mm2 <= 0:
            raise AreaError(
                f"tile area must be positive, got {self.tile_area_mm2}"
            )

    @property
    def block_fractions(self) -> Dict[str, float]:
        """Per-block overhead as a fraction of the tile."""
        return {
            name: area / self.tile_area_mm2
            for name, area in BLITZCOIN_BLOCK_AREAS_MM2.items()
        }

    @property
    def total_fraction(self) -> float:
        """Combined BlitzCoin overhead fraction."""
        return sum(self.block_fractions.values())

    def advantage_over(self, prior: str) -> float:
        """How many times smaller than a published prior design."""
        if prior not in PRIOR_ART_OVERHEADS:
            raise AreaError(
                f"unknown prior design {prior!r}; "
                f"known: {sorted(PRIOR_ART_OVERHEADS)}"
            )
        return PRIOR_ART_OVERHEADS[prior] / self.total_fraction


def comparison_rows(tile_area_mm2: float = 1.0) -> List[Tuple[str, float]]:
    """(design, overhead fraction) rows for the Section IV-A comparison."""
    budget = TileAreaBudget(tile_area_mm2)
    rows = [("BlitzCoin (this work)", budget.total_fraction)]
    rows.extend(sorted(PRIOR_ART_OVERHEADS.items(), key=lambda kv: kv[1]))
    return rows
