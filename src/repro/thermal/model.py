"""RC thermal network over the tile grid.

Standard compact model: each tile is one thermal node with a vertical
resistance to the heat sink (held at ambient) and lateral resistances
to its mesh neighbors; a per-tile capacitance gives the transient time
constant.  Values are scaled for ~1 mm^2 12 nm tiles dissipating tens
of mW, giving tens of degrees of rise at full power and a ~100 us time
constant — the same order as the workload phases, so the transient
behaviour matters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.noc.topology import MeshTopology
from repro.sim import NOC_FREQUENCY_HZ


class ThermalError(ValueError):
    """Raised for invalid thermal configuration or inputs."""


@dataclass(frozen=True)
class ThermalConfig:
    """Compact-model parameters (per ~1 mm^2 tile)."""

    r_vertical_k_per_w: float = 400.0  # tile -> heat sink
    r_lateral_k_per_w: float = 800.0  # tile -> adjacent tile
    c_tile_j_per_k: float = 2.5e-7  # tau_vertical = R*C ~ 100 us
    ambient_c: float = 45.0

    def __post_init__(self) -> None:
        if self.r_vertical_k_per_w <= 0 or self.r_lateral_k_per_w <= 0:
            raise ThermalError("thermal resistances must be positive")
        if self.c_tile_j_per_k <= 0:
            raise ThermalError("thermal capacitance must be positive")


class ThermalGrid:
    """Explicit-Euler RC network over a mesh of tiles."""

    def __init__(
        self, topology: MeshTopology, config: Optional[ThermalConfig] = None
    ) -> None:
        self.topology = topology
        self.config = config or ThermalConfig()
        n = topology.n_tiles
        self.temperatures = np.full(n, self.config.ambient_c, dtype=float)
        # Conductance matrix G (W/K): G @ T = P + g_v * T_amb at steady
        # state.  Laplacian of the mesh plus the vertical legs.
        g_v = 1.0 / self.config.r_vertical_k_per_w
        g_l = 1.0 / self.config.r_lateral_k_per_w
        G = np.zeros((n, n))
        for t in range(n):
            G[t, t] += g_v
            for nb in topology.mesh_neighbors(t):
                G[t, t] += g_l
                G[t, nb] -= g_l
        self._G = G
        self._g_v = g_v

    # ------------------------------------------------------------ stepping
    def step(self, power_w: np.ndarray, dt_s: float) -> np.ndarray:
        """Advance the network by ``dt_s`` seconds under per-tile power (W).

        Internally sub-steps to keep explicit Euler stable (dt below a
        fifth of the smallest time constant).
        """
        power_w = np.asarray(power_w, dtype=float)
        if power_w.shape != self.temperatures.shape:
            raise ThermalError(
                f"power vector has shape {power_w.shape}, expected "
                f"{self.temperatures.shape}"
            )
        if dt_s <= 0:
            raise ThermalError(f"dt must be positive, got {dt_s}")
        c = self.config.c_tile_j_per_k
        max_stable = c / self._G.diagonal().max() / 5.0
        n_sub = max(1, int(np.ceil(dt_s / max_stable)))
        h = dt_s / n_sub
        amb = self.config.ambient_c
        for _ in range(n_sub):
            flow = power_w - self._G @ (self.temperatures - amb)
            self.temperatures = self.temperatures + (h / c) * flow
        return self.temperatures

    def steady_state(self, power_w: np.ndarray) -> np.ndarray:
        """Equilibrium temperatures for constant per-tile power (W)."""
        power_w = np.asarray(power_w, dtype=float)
        if power_w.shape != self.temperatures.shape:
            raise ThermalError("power vector shape mismatch")
        delta = np.linalg.solve(self._G, power_w)
        return self.config.ambient_c + delta

    # ------------------------------------------------------------ read-outs
    @property
    def max_temperature_c(self) -> float:
        return float(self.temperatures.max())

    def reset(self) -> None:
        """Return every node to ambient."""
        self.temperatures[:] = self.config.ambient_c


def simulate_run_thermals(
    run,
    topology: MeshTopology,
    *,
    config: Optional[ThermalConfig] = None,
    dt_cycles: int = 1_000,
) -> Dict[str, np.ndarray]:
    """Post-hoc thermal analysis of a recorded SoC run, sampled every
    ``dt_cycles`` NoC cycles.

    Replays the run's per-tile power traces through the RC network and
    returns the time axis, the per-tile peak temperatures, and the
    hottest-tile trajectory.
    """
    grid = ThermalGrid(topology, config)
    n = topology.n_tiles
    steps = np.arange(0, run.makespan_cycles + dt_cycles, dt_cycles)
    dt_s = dt_cycles / NOC_FREQUENCY_HZ
    peak = np.full(n, grid.config.ambient_c)
    hottest = np.zeros(len(steps))
    for k, t in enumerate(steps):
        power_w = np.zeros(n)
        for tid in run.managed_tiles:
            trace = run.recorder.get(f"power/{tid}")
            if trace is not None:
                power_w[tid] = trace.value_at(int(t)) / 1000.0
        grid.step(power_w, dt_s)
        peak = np.maximum(peak, grid.temperatures)
        hottest[k] = grid.max_temperature_c
    return {
        "time_cycles": steps,
        "peak_by_tile_c": peak,
        "hottest_trajectory_c": hottest,
    }
