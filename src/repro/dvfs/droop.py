"""Voltage-droop response: UVFR's self-protection property.

Section IV-A (citing [58]-[60]): "when a voltage droop occurs, the
oscillator propagation time increases and delays the next clock edge",
so a UVFR tile rides out supply transients with a momentary slowdown
instead of a timing violation.  A conventional fixed-frequency design
must instead provision a static voltage guard-band and *fails timing*
whenever a droop exceeds it.

This module quantifies both behaviours against the same droop events:
the UVFR cost is lost cycles (performance), the conventional cost is
timing violations (correctness) unless the guard-band — and therefore
its permanent power overhead — is large enough.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.dvfs.oscillator import RingOscillator
from repro.power.characterization import PowerFrequencyCurve


@dataclass(frozen=True)
class DroopEvent:
    """One supply transient: a dip of ``depth_v`` for ``duration_cycles``."""

    start_cycle: int
    depth_v: float
    duration_cycles: int

    def __post_init__(self) -> None:
        if self.depth_v < 0:
            raise ValueError(f"droop depth must be >= 0, got {self.depth_v}")
        if self.duration_cycles <= 0:
            raise ValueError(
                f"droop duration must be > 0, got {self.duration_cycles}"
            )
        if self.start_cycle < 0:
            raise ValueError(f"negative start cycle {self.start_cycle}")


@dataclass(frozen=True)
class UvfrDroopResult:
    """Outcome of riding droops with a supply-tracking clock."""

    lost_cycles: float  # equivalent full-speed cycles of slowdown
    min_frequency_hz: float
    timing_violations: int  # always 0: the clock cannot outrun the logic

    @property
    def survives(self) -> bool:
        return self.timing_violations == 0


@dataclass(frozen=True)
class ConventionalDroopResult:
    """Outcome of a fixed-frequency clock behind a static guard-band."""

    timing_violations: int
    worst_margin_v: float  # most negative observed voltage margin
    guardband_power_overhead: float  # fractional, paid permanently

    @property
    def survives(self) -> bool:
        return self.timing_violations == 0


class DroopSimulator:
    """Quasi-static droop analysis for one tile."""

    def __init__(self, curve: PowerFrequencyCurve) -> None:
        self.curve = curve
        self.oscillator = RingOscillator(curve)

    # ------------------------------------------------------------- helpers
    def _clamped_v(self, v: float) -> float:
        return min(max(v, self.curve.spec.v_min), self.curve.spec.v_max)

    # ---------------------------------------------------------------- UVFR
    def uvfr_response(
        self, f_target_hz: float, events: Sequence[DroopEvent]
    ) -> UvfrDroopResult:
        """UVFR rides the droop: the clock slows with the supply.

        The oscillator shares the rail with the logic, so at every
        instant the clock period is at least the critical path delay —
        timing cannot be violated; the only cost is the work not done
        while slowed.
        """
        v_nominal = self.oscillator.v_for_frequency(
            min(f_target_hz, self.oscillator.f_max_hz)
        )
        f_nominal = self.oscillator.frequency_hz(v_nominal)
        lost = 0.0
        min_f = f_nominal
        for event in events:
            v_droop = self._clamped_v(v_nominal - event.depth_v)
            f_droop = self.oscillator.frequency_hz(v_droop)
            min_f = min(min_f, f_droop)
            lost += (
                (f_nominal - f_droop) / f_nominal
            ) * event.duration_cycles
        return UvfrDroopResult(
            lost_cycles=lost,
            min_frequency_hz=min_f,
            timing_violations=0,
        )

    # --------------------------------------------------------- conventional
    def conventional_response(
        self,
        f_target_hz: float,
        events: Sequence[DroopEvent],
        guardband_v: float,
    ) -> ConventionalDroopResult:
        """Fixed clock at ``f_target_hz`` with a static voltage margin.

        The logic needs ``v_req = V(f_target)``; the rail is regulated
        at ``v_req + guardband``.  A droop deeper than the guard-band
        drops the rail below ``v_req`` while the clock keeps running —
        a timing violation.
        """
        if guardband_v < 0:
            raise ValueError(f"guardband must be >= 0, got {guardband_v}")
        v_req = self.curve.v_for_f(
            min(f_target_hz, self.curve.spec.f_max_hz)
        )
        v_set = self._clamped_v(v_req + guardband_v)
        effective_guard = v_set - v_req
        violations = 0
        worst_margin = effective_guard
        for event in events:
            margin = effective_guard - event.depth_v
            worst_margin = min(worst_margin, margin)
            if margin < 0:
                violations += 1
        p_guarded = self.curve.power_mw(
            v_set, min(f_target_hz, self.curve.f_max_at(v_set))
        )
        p_exact = self.curve.power_at_f(
            min(f_target_hz, self.curve.spec.f_max_hz)
        )
        overhead = p_guarded / p_exact - 1.0 if p_exact > 0 else 0.0
        return ConventionalDroopResult(
            timing_violations=violations,
            worst_margin_v=worst_margin,
            guardband_power_overhead=max(0.0, overhead),
        )

    # ------------------------------------------------------------ analysis
    def guardband_tradeoff(
        self,
        f_target_hz: float,
        depths_v: Sequence[float],
        duration_cycles: int = 200,
    ) -> List[Tuple[float, float, float]]:
        """(droop depth, UVFR lost-cycle fraction, conventional power
        overhead of the guard-band that survives it) rows.

        The headline comparison: UVFR pays a transient performance tax
        only while droops last; the conventional design pays a permanent
        power tax proportional to the worst droop it must survive.
        """
        rows = []
        for depth in depths_v:
            event = DroopEvent(0, depth, duration_cycles)
            uvfr = self.uvfr_response(f_target_hz, [event])
            conv = self.conventional_response(
                f_target_hz, [event], guardband_v=depth
            )
            rows.append(
                (
                    depth,
                    uvfr.lost_cycles / duration_cycles,
                    conv.guardband_power_overhead,
                )
            )
        return rows
