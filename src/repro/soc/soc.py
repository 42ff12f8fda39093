"""SoC composition: grid + NoC + actuators + power recording."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.dvfs.actuator import TileActuator
from repro.noc.behavioral import BehavioralNoc
from repro.noc.fabric import NocFabric
from repro.noc.router import CycleNoc
from repro.obs import runtime as _obs
from repro.power.characterization import PowerFrequencyCurve, get_curve
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceRecorder
from repro.soc.tile import SocConfig, TileKind


class SocError(RuntimeError):
    """Raised for invalid SoC operations."""


class Soc:
    """A live SoC instance: simulator, NoC, per-tile actuators, traces.

    Power managers and the workload executor plug into this object; it
    owns the per-tile activity flags and records a power trace sample
    whenever a tile's frequency or activity changes.
    """

    def __init__(
        self,
        config: SocConfig,
        *,
        noc_fidelity: str = "behavioral",
        sim: Optional[Simulator] = None,
    ) -> None:
        self.config = config
        self.sim = sim or Simulator()
        self.topology = config.topology
        if noc_fidelity == "behavioral":
            self.noc: NocFabric = BehavioralNoc(self.sim, self.topology)
        elif noc_fidelity == "cycle":
            self.noc = CycleNoc(self.sim, self.topology)
        else:
            raise SocError(f"unknown NoC fidelity {noc_fidelity!r}")
        self.recorder = TraceRecorder()
        self.curves: Dict[int, PowerFrequencyCurve] = {}
        self.actuators: Dict[int, TileActuator] = {}
        self.active: Dict[int, bool] = {}
        self._f_change_listeners: List[Callable[[int, float], None]] = []
        for tid in config.accelerators():
            curve = get_curve(config.class_of(tid))
            self.curves[tid] = curve
            self.actuators[tid] = TileActuator(
                self.sim,
                curve,
                on_frequency_change=self._make_f_listener(tid),
            )
            self.active[tid] = False
            self._record_power(tid)

    # ------------------------------------------------------------- listeners
    def _make_f_listener(self, tid: int) -> Callable[[float], None]:
        def on_change(f_hz: float) -> None:
            self._record_power(tid)
            self.recorder.record(f"freq/{tid}", self.sim.now, f_hz)
            if _obs.sink is not None:
                _obs.sink.sample(
                    "soc.freq_mhz",
                    self.sim.now,
                    f_hz / 1e6,
                    cat="soc",
                    track=tid,
                )
            for listener in self._f_change_listeners:
                listener(tid, f_hz)

        return on_change

    def add_frequency_listener(
        self, listener: Callable[[int, float], None]
    ) -> None:
        """Register a callback fired on any tile's frequency landing."""
        self._f_change_listeners.append(listener)

    # -------------------------------------------------------------- activity
    def set_active(self, tid: int, active: bool) -> None:
        """Flip a tile's execution state and record the power step."""
        if tid not in self.actuators:
            raise SocError(f"tile {tid} is not an accelerator")
        self.active[tid] = active
        self._record_power(tid)
        self.recorder.record(
            f"active/{tid}", self.sim.now, 1.0 if active else 0.0
        )

    def _record_power(self, tid: int) -> None:
        power = self.actuators[tid].power_mw(self.active[tid])
        self.recorder.record(f"power/{tid}", self.sim.now, power)
        if _obs.sink is not None:
            _obs.sink.sample(
                "soc.power_mw", self.sim.now, power, cat="soc", track=tid
            )

    # -------------------------------------------------------------- read-outs
    def tile_power_mw(self, tid: int) -> float:
        """Instantaneous accelerator-tile power."""
        return self.actuators[tid].power_mw(self.active[tid])

    def p_max_by_tile(self, tiles: Optional[List[int]] = None) -> Dict[int, float]:
        """Peak power per accelerator tile (for allocation sizing)."""
        if tiles is None:
            tiles = self.config.managed_accelerators()
        return {t: self.curves[t].p_max_mw for t in tiles}

    def set_frequency_target(self, tid: int, f_hz: float) -> None:
        """Push a frequency target into a tile's actuator."""
        if tid not in self.actuators:
            raise SocError(f"tile {tid} is not an accelerator")
        self.actuators[tid].set_frequency_target(f_hz)

    def frequency(self, tid: int) -> float:
        """Current (landed) clock frequency of a tile."""
        return self.actuators[tid].f_current_hz

    def kind(self, tid: int) -> TileKind:
        """Tile kind at slot ``tid``."""
        return self.config.spec(tid).kind
