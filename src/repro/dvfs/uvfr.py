"""The closed Unified Voltage and Frequency Regulation loop (Fig. 9).

Control path, matching the four hardware steps of Section IV-A:

1. a frequency target arrives (from the coin LUT),
2. the TDC digitizes the ring oscillator's current frequency,
3. the PID compares target vs. measured counts,
4. the LDO code is updated; the oscillator tracks the settling voltage.

The loop steps once per TDC window.  :meth:`settle` runs it until the
measured frequency is within one TDC count of the target, returning the
trajectory — the reproduction of the Fig. 19 (bottom right) clock
transition measurement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.dvfs.ldo import DigitalLdo
from repro.dvfs.oscillator import RingOscillator
from repro.dvfs.pid import PidController
from repro.dvfs.tdc import CounterTdc


@dataclass(frozen=True)
class UvfrSettleResult:
    """Trajectory of one frequency transition."""

    settled: bool
    cycles: int
    steps: int
    trajectory: Tuple[Tuple[int, float, float, int], ...]
    """(time_cycles, v_out, f_tile_hz, tdc_count) per control step."""

    @property
    def final_frequency_hz(self) -> float:
        return self.trajectory[-1][2] if self.trajectory else 0.0


class UvfrLoop:
    """One tile's unified V/F regulator."""

    def __init__(
        self,
        ldo: DigitalLdo,
        oscillator: RingOscillator,
        tdc: Optional[CounterTdc] = None,
        pid: Optional[PidController] = None,
    ) -> None:
        self.ldo = ldo
        self.oscillator = oscillator
        self.tdc = tdc or CounterTdc()
        self.pid = pid or PidController(out_max=float(ldo.n_codes - 1))
        self.f_target_hz = 0.0
        self.now = 0

    # ---------------------------------------------------------------- state
    def frequency_hz(self, now: Optional[int] = None) -> float:
        """Tile clock frequency at ``now`` (tracks the settling voltage)."""
        t = self.now if now is None else now
        return self.oscillator.frequency_hz(self.ldo.v_out(t))

    def voltage(self, now: Optional[int] = None) -> float:
        """Tile supply voltage at ``now``."""
        t = self.now if now is None else now
        return self.ldo.v_out(t)

    def set_target(self, f_target_hz: float) -> None:
        """Latch a new frequency target (from the coin LUT)."""
        if f_target_hz < 0:
            raise ValueError(f"negative target {f_target_hz}")
        self.f_target_hz = min(f_target_hz, self.oscillator.f_max_hz)
        self.pid.reset()

    # ----------------------------------------------------------------- loop
    def step(self) -> Tuple[int, float, float, int]:
        """One control step (one TDC window); returns the sample tuple."""
        self.now += self.tdc.measurement_cycles
        f_now = self.frequency_hz()
        count_now = self.tdc.count(f_now)
        count_target = self.tdc.count(self.f_target_hz)
        error = count_target - count_now
        code = int(round(self.pid.step(error, bias=self.ldo.code)))
        code = min(max(code, 0), self.ldo.n_codes - 1)
        if code != self.ldo.code:
            self.ldo.set_code(code, self.now)
        return (self.now, self.voltage(), f_now, count_now)

    def settle(self, max_steps: int = 400) -> UvfrSettleResult:
        """Run control steps until within one TDC count of the target."""
        start = self.now
        trajectory: List[Tuple[int, float, float, int]] = []
        target_count = self.tdc.count(self.f_target_hz)
        stable = 0
        for step_idx in range(1, max_steps + 1):
            sample = self.step()
            trajectory.append(sample)
            if abs(sample[3] - target_count) <= 1:
                stable += 1
                if stable >= 3:  # require a held lock, not a crossing
                    return UvfrSettleResult(
                        settled=True,
                        cycles=self.now - start,
                        steps=step_idx,
                        trajectory=tuple(trajectory),
                    )
            else:
                stable = 0
        return UvfrSettleResult(
            settled=False,
            cycles=self.now - start,
            steps=max_steps,
            trajectory=tuple(trajectory),
        )

    def transition(
        self, f_target_hz: float, max_steps: int = 400
    ) -> UvfrSettleResult:
        """Latch a target and settle — one Fig. 19 clock transition."""
        self.set_target(f_target_hz)
        return self.settle(max_steps=max_steps)
