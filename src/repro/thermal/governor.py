"""Closed-loop hotspot governance on top of BlitzCoin.

A periodic process samples the live tile powers, steps the RC thermal
network, and when a tile crosses its temperature limit writes a runtime
thermal coin cap (the CSR-visible control) to squeeze its allocation;
when the tile cools past the hysteresis band the cap is released.
The coins a capped tile rejects stay in circulation, so the SoC's total
budget and throughput degrade gracefully rather than globally.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.sim import NOC_FREQUENCY_HZ
from repro.soc.pm import BlitzCoinPM
from repro.soc.soc import Soc
from repro.thermal.model import ThermalConfig, ThermalGrid


class ThermalGovernor:
    """Temperature-driven thermal-cap controller for a BlitzCoin SoC."""

    def __init__(
        self,
        soc: Soc,
        pm: BlitzCoinPM,
        *,
        limit_c: float = 75.0,
        hysteresis_c: float = 3.0,
        sample_cycles: int = 2_000,
        capped_coins: int = 4,
        thermal_config: Optional[ThermalConfig] = None,
    ) -> None:
        if hysteresis_c < 0:
            raise ValueError(f"hysteresis must be >= 0, got {hysteresis_c}")
        if sample_cycles < 1:
            raise ValueError(f"sample period must be >= 1, got {sample_cycles}")
        if capped_coins < 0:
            raise ValueError(f"capped coins must be >= 0, got {capped_coins}")
        self.soc = soc
        self.pm = pm
        self.limit_c = limit_c
        self.hysteresis_c = hysteresis_c
        self.sample_cycles = sample_cycles
        self.capped_coins = capped_coins
        self.grid = ThermalGrid(soc.topology, thermal_config)
        self.capped: Dict[int, int] = {}  # tile -> cycle the cap engaged
        self.events: List[Tuple[int, int, str]] = []  # (cycle, tile, action)
        self.peak_temperature_c = self.grid.config.ambient_c
        self._active = False

    def start(self) -> None:
        """Begin periodic thermal sampling."""
        if self._active:
            raise RuntimeError("governor already started")
        self._active = True
        self.soc.sim.schedule(self.sample_cycles, self._sample)

    def stop(self) -> None:
        """Stop sampling (caps currently applied remain in force)."""
        self._active = False

    # ---------------------------------------------------------------- loop
    def _sample(self) -> None:
        if not self._active:
            return
        n = self.soc.topology.n_tiles
        power_w = np.zeros(n)
        for tid in self.pm.tiles:
            power_w[tid] = self.soc.tile_power_mw(tid) / 1000.0
        self.grid.step(power_w, self.sample_cycles / NOC_FREQUENCY_HZ)
        self.peak_temperature_c = max(
            self.peak_temperature_c, self.grid.max_temperature_c
        )
        for tid in self.pm.tiles:
            temp = self.grid.temperatures[tid]
            if tid not in self.capped and temp > self.limit_c:
                self.pm.engine.set_thermal_cap(tid, self.capped_coins)
                self.capped[tid] = self.soc.sim.now
                self.events.append((self.soc.sim.now, tid, "cap"))
            elif (
                tid in self.capped
                and temp < self.limit_c - self.hysteresis_c
            ):
                self.pm.engine.set_thermal_cap(tid, None)
                del self.capped[tid]
                self.events.append((self.soc.sim.now, tid, "release"))
        self.soc.sim.schedule(self.sample_cycles, self._sample)

    # ------------------------------------------------------------ read-outs
    @property
    def cap_events(self) -> int:
        """How many times a cap was engaged."""
        return sum(1 for _, _, action in self.events if action == "cap")
