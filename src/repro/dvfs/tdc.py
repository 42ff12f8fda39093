"""Counter-based time-to-digital converter.

The UVFR feedback comparator counts tile-clock edges within a window of
the fixed NoC reference clock, producing a digital readout of the
current tile frequency (Section IV-A).  Quantization is one count per
window: resolution = f_ref / window.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CounterTdc:
    """Edge counter over a reference window.

    ``window_ref_cycles`` reference cycles per measurement; the count is
    ``floor(f_tile / f_ref * window)``.
    """

    f_ref_hz: float = 800e6
    window_ref_cycles: int = 64

    def __post_init__(self) -> None:
        if self.f_ref_hz <= 0:
            raise ValueError(f"f_ref must be > 0, got {self.f_ref_hz}")
        if self.window_ref_cycles < 1:
            raise ValueError(
                f"window must be >= 1 cycle, got {self.window_ref_cycles}"
            )

    @property
    def resolution_hz(self) -> float:
        """Frequency represented by one count."""
        return self.f_ref_hz / self.window_ref_cycles

    @property
    def measurement_cycles(self) -> int:
        """Reference cycles one measurement occupies."""
        return self.window_ref_cycles

    def count(self, f_tile_hz: float) -> int:
        """Digital readout for a tile frequency."""
        if f_tile_hz < 0:
            raise ValueError(f"negative frequency {f_tile_hz}")
        return int(f_tile_hz / self.resolution_hz)
