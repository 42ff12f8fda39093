"""The coin-to-frequency lookup table (Section IV-A, step 2).

Each tile stores a 64-entry LUT, filled at configuration time from the
tile's power pre-characterization: entry ``c`` holds the largest
frequency whose UVFR-operating-point power does not exceed ``c`` coins'
worth of power.  Negative transient coin counts map to entry 0.
"""

from __future__ import annotations

from typing import Tuple

from repro.power.budget import MAX_COINS_PER_TILE
from repro.power.characterization import PowerFrequencyCurve


class CoinLut:
    """Per-tile frequency LUT indexed by coin count."""

    def __init__(
        self,
        curve: PowerFrequencyCurve,
        coin_value_mw: float,
        n_entries: int = MAX_COINS_PER_TILE + 1,
    ) -> None:
        if coin_value_mw <= 0:
            raise ValueError(f"coin value must be > 0, got {coin_value_mw}")
        if n_entries < 2:
            raise ValueError(f"LUT needs >= 2 entries, got {n_entries}")
        self.curve = curve
        self.coin_value_mw = coin_value_mw
        self._entries: Tuple[float, ...] = tuple(
            curve.f_for_power(c * coin_value_mw) for c in range(n_entries)
        )

    @property
    def n_entries(self) -> int:
        """Number of LUT entries (power levels per tile)."""
        return len(self._entries)

    def frequency_for(self, coins: int) -> float:
        """Frequency target for a coin count (clamped, sign-tolerant)."""
        idx = min(max(coins, 0), self.n_entries - 1)
        return self._entries[idx]
