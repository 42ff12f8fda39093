"""Tile specifications and SoC configurations.

The ESP architecture's four tile types (Section IV-B) plus the
scratchpad tiles of the fabricated chip.  Only accelerator tiles inside
the PM domain participate in coin exchange; the others run at the fixed
NoC voltage/frequency (Section IV-C) and are accounted a constant power.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.noc.topology import MeshTopology
from repro.power.characterization import ACCELERATOR_CATALOG


class SocConfigError(ValueError):
    """Raised for inconsistent SoC configurations."""


class TileKind(enum.Enum):
    """ESP tile types (plus the chip's SRAM scratchpads)."""

    ACCELERATOR = "acc"
    CPU = "cpu"
    MEM = "mem"
    IO = "io"
    SCRATCHPAD = "sram"
    AUX = "aux"


@dataclass(frozen=True)
class TileSpec:
    """Static description of one tile slot."""

    kind: TileKind
    acc_class: Optional[str] = None
    pm_enabled: bool = True  # inside the BlitzCoin PM domain?
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind is TileKind.ACCELERATOR:
            if self.acc_class is None:
                raise SocConfigError("accelerator tile needs an acc_class")
            if self.acc_class not in ACCELERATOR_CATALOG:
                raise SocConfigError(
                    f"unknown accelerator class {self.acc_class!r}"
                )
        elif self.acc_class is not None:
            raise SocConfigError(
                f"{self.kind.value} tile cannot have an accelerator class"
            )

    @property
    def is_managed_accelerator(self) -> bool:
        """True for accelerator tiles inside the PM domain."""
        return self.kind is TileKind.ACCELERATOR and self.pm_enabled


@dataclass(frozen=True)
class SocConfig:
    """A named grid of tile specs."""

    name: str
    width: int
    height: int
    tiles: Dict[int, TileSpec] = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = self.width * self.height
        for tid in self.tiles:
            if not (0 <= tid < n):
                raise SocConfigError(
                    f"tile id {tid} outside the {self.width}x{self.height} grid"
                )
        if not any(
            s.kind is TileKind.CPU for s in self.tiles.values()
        ):
            raise SocConfigError(f"SoC {self.name!r} has no CPU tile")

    @property
    def topology(self) -> MeshTopology:
        """Mesh geometry of this SoC."""
        return MeshTopology(self.width, self.height)

    def spec(self, tid: int) -> TileSpec:
        """Spec of tile ``tid`` (unlisted slots default to AUX)."""
        return self.tiles.get(tid, TileSpec(kind=TileKind.AUX))

    def managed_accelerators(self) -> List[int]:
        """Tile ids of accelerators inside the PM domain."""
        return sorted(
            t for t, s in self.tiles.items() if s.is_managed_accelerator
        )

    def accelerators(self) -> List[int]:
        """All accelerator tile ids, managed or not."""
        return sorted(
            t
            for t, s in self.tiles.items()
            if s.kind is TileKind.ACCELERATOR
        )

    def cpu_tile(self) -> int:
        """The (first) CPU tile id — the workload dispatcher / OCC host."""
        return min(
            t for t, s in self.tiles.items() if s.kind is TileKind.CPU
        )

    def tiles_of_class(self, acc_class: str) -> List[int]:
        """Managed accelerator tiles of one class."""
        return sorted(
            t
            for t, s in self.tiles.items()
            if s.is_managed_accelerator and s.acc_class == acc_class
        )

    def class_of(self, tid: int) -> str:
        """Accelerator class of tile ``tid`` (raises for non-accelerators)."""
        spec = self.spec(tid)
        if spec.acc_class is None:
            raise SocConfigError(f"tile {tid} is not an accelerator")
        return spec.acc_class
