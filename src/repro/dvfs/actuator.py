"""Tile-level actuation wrappers used by the SoC simulator.

:class:`TileActuator` is the behavioral contract between power
management and a tile: a frequency target goes in, and after the UVFR
settle latency the tile clock lands on it.  The detailed mixed-signal
loop lives in :mod:`repro.dvfs.uvfr`; this wrapper uses its settle-time
physics but applies transitions as single events, which keeps full-SoC
simulations tractable (the same abstraction the paper's RTL simulations
use for the time-annotated ring oscillator, Section V-A).

:class:`ConventionalDualLoop` models the classic separate
voltage-loop-plus-PLL actuator of Fig. 9 for the ablation benches: same
frequency, but a guard-banded (higher) voltage and a slower, sequenced
transition.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.dvfs.ldo import DigitalLdo
from repro.dvfs.oscillator import RingOscillator
from repro.dvfs.tdc import CounterTdc
from repro.dvfs.uvfr import UvfrLoop
from repro.obs import runtime as _obs
from repro.power.characterization import PowerFrequencyCurve
from repro.sim.kernel import Event, Simulator


class TileActuator:
    """Event-driven per-tile frequency actuator with UVFR semantics."""

    def __init__(
        self,
        sim: Simulator,
        curve: PowerFrequencyCurve,
        *,
        settle_cycles: Optional[int] = None,
        on_frequency_change: Optional[Callable[[float], None]] = None,
    ) -> None:
        self.sim = sim
        self.curve = curve
        if settle_cycles is None:
            # Default settle latency from the underlying loop physics:
            # LDO exponential settle to 5 mV plus a few TDC windows.
            ldo = DigitalLdo(
                v_out_min=curve.spec.v_min, v_out_max=curve.spec.v_max
            )
            settle_cycles = ldo.settle_cycles() + 3 * CounterTdc().window_ref_cycles
        if settle_cycles < 0:
            raise ValueError(f"settle_cycles must be >= 0, got {settle_cycles}")
        self.settle_cycles = settle_cycles
        self.on_frequency_change = on_frequency_change
        self.f_current_hz = 0.0
        self.f_target_hz = 0.0
        self._pending: Optional[Event] = None
        self.transitions: List[Tuple[int, float]] = []

    def set_frequency_target(self, f_hz: float) -> None:
        """Latch a new target; the clock lands after the settle latency.

        A retarget during a transition supersedes it (the UVFR loop just
        keeps slewing toward the newest target).
        """
        if f_hz < 0:
            raise ValueError(f"negative frequency target {f_hz}")
        f_hz = min(f_hz, self.curve.spec.f_max_hz)
        if f_hz == self.f_target_hz and self._pending is not None:
            return  # same target already settling; let it land
        if _obs.sink is not None:
            _obs.sink.inc("dvfs.retargets", self.sim.now)
        self.f_target_hz = f_hz
        if self._pending is not None:
            self._pending.cancel()
        if f_hz == self.f_current_hz:
            self._pending = None
            return

        def land() -> None:
            self.f_current_hz = self.f_target_hz
            self._pending = None
            self.transitions.append((self.sim.now, self.f_current_hz))
            if _obs.sink is not None:
                _obs.sink.inc("dvfs.landings", self.sim.now)
            if self.on_frequency_change is not None:
                self.on_frequency_change(self.f_current_hz)

        self._pending = self.sim.schedule(self.settle_cycles, land)

    def power_mw(self, active: bool) -> float:
        """Instantaneous tile power at the current clock."""
        if not active:
            return self.curve.p_idle_mw
        return self.curve.power_at_f(self.f_current_hz)


class ConventionalDualLoop:
    """Separate voltage and frequency loops with a droop guard-band.

    For a given frequency the voltage loop must regulate *above* the
    UVFR point by ``guardband_v`` to survive transient droops the clock
    cannot dodge (Fig. 9, left); the transition also sequences voltage
    settle before frequency relock, roughly doubling the latency.
    """

    def __init__(
        self,
        curve: PowerFrequencyCurve,
        *,
        guardband_v: float = 0.05,
        relock_cycles: int = 400,
    ) -> None:
        if guardband_v < 0:
            raise ValueError(f"guardband must be >= 0, got {guardband_v}")
        if relock_cycles < 0:
            raise ValueError(f"relock_cycles must be >= 0, got {relock_cycles}")
        self.curve = curve
        self.guardband_v = guardband_v
        self.relock_cycles = relock_cycles
        self._ldo = DigitalLdo(
            v_out_min=curve.spec.v_min, v_out_max=curve.spec.v_max
        )

    def voltage_for(self, f_hz: float) -> float:
        """Guard-banded supply voltage for frequency ``f_hz``."""
        base = self.curve.v_for_f(f_hz)
        return min(base + self.guardband_v, self.curve.spec.v_max)

    def power_at_f(self, f_hz: float) -> float:
        """Tile power at ``f_hz`` under the guard-banded voltage."""
        return self.curve.power_mw(self.voltage_for(f_hz), f_hz)

    def overhead_vs_uvfr(self, f_hz: float) -> float:
        """Fractional power penalty of the guard-band at ``f_hz``."""
        uvfr = self.curve.power_at_f(f_hz)
        if uvfr <= 0:
            return 0.0
        return self.power_at_f(f_hz) / uvfr - 1.0

    def settle_cycles(self) -> int:
        """Sequenced transition latency: voltage settle then PLL relock."""
        return self._ldo.settle_cycles() + self.relock_cycles


def build_uvfr_loop(curve: PowerFrequencyCurve) -> UvfrLoop:
    """Assemble a detailed UVFR loop for one accelerator class."""
    ldo = DigitalLdo(v_out_min=curve.spec.v_min, v_out_max=curve.spec.v_max)
    osc = RingOscillator(curve)
    return UvfrLoop(ldo, osc)
