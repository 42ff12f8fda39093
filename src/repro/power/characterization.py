"""Accelerator power/frequency characterization (Fig. 13).

Each accelerator class gets an analytic model:

* ``F_max(V)``: alpha-power law, ``F = k * (V - V_t)^alpha / V`` — the
  standard deep-submicron delay model, which produces the near-linear
  F(V) curves seen in the paper's measurements.
* ``P(V, F) = C_eff * V^2 * F + P_leak(V)`` with exponential-ish leakage.

Under UVFR (Section IV-A) a tile always runs at the minimum voltage that
sustains its frequency, so the single-variable curve ``P(F)`` used by the
coin-to-frequency LUT evaluates the model at ``V = V_for_F(F)``.

Its inverse, ``f_for_power``, nests the ``V_for_F`` bisection inside its
own, so each curve memoizes it in a dict keyed by the queried power and
cleared at ``F_FOR_POWER_MEMO_BOUND`` entries.  The memo is exact (a hit
returns the float the solver returned), and ``get_curve`` hands out one
curve per class, so every SoC in a process shares it.

Peak powers are calibrated so that the SoC-level budgets in the paper
hold: the 3x3 SoC's six accelerators total ~400 mW at F_max (its 120 mW /
60 mW budgets are 30% / 15% of combined max power), and the 4x4 SoC's
thirteen accelerators total ~1350 mW (450 mW / 900 mW are 33% / 66%).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np


#: Most points one curve's ``f_for_power`` memo holds before it is
#: cleared: two full 12-bit coin LUTs.  Power targets can be chosen
#: freely (budgets come from users), so the key set is unbounded.
F_FOR_POWER_MEMO_BOUND = 8192


class CharacterizationError(ValueError):
    """Raised for out-of-range voltage/frequency queries."""


@dataclass(frozen=True)
class AcceleratorClass:
    """Static description of one accelerator type."""

    name: str
    v_min: float  # minimum operating voltage (V)
    v_max: float  # maximum operating voltage (V)
    f_max_hz: float  # frequency at v_max (Hz)
    p_max_mw: float  # total power at (v_max, f_max) (mW)
    leak_fraction: float = 0.10  # leakage share of p_max at v_max
    v_threshold: float = 0.30  # alpha-power-law threshold voltage
    alpha: float = 1.3  # velocity-saturation exponent
    idle_power_ratio: float = 7.5  # extra savings at min V with F scaled down

    def __post_init__(self) -> None:
        if not (0.0 < self.v_min < self.v_max):
            raise CharacterizationError(
                f"{self.name}: need 0 < v_min < v_max, got "
                f"({self.v_min}, {self.v_max})"
            )
        if self.v_threshold >= self.v_min:
            raise CharacterizationError(
                f"{self.name}: threshold {self.v_threshold} >= v_min {self.v_min}"
            )
        if self.f_max_hz <= 0 or self.p_max_mw <= 0:
            raise CharacterizationError(f"{self.name}: non-positive f_max or p_max")
        if not (0.0 <= self.leak_fraction < 1.0):
            raise CharacterizationError(
                f"{self.name}: leak_fraction must be in [0, 1)"
            )


class PowerFrequencyCurve:
    """Evaluable P/V/F model for one accelerator class."""

    def __init__(self, spec: AcceleratorClass) -> None:
        self.spec = spec
        # Calibrate the alpha-power constant so F_max(v_max) == f_max_hz.
        self._k = spec.f_max_hz * spec.v_max / (
            (spec.v_max - spec.v_threshold) ** spec.alpha
        )
        # Calibrate effective capacitance from the dynamic share of p_max.
        dyn_at_max = spec.p_max_mw * (1.0 - spec.leak_fraction)
        self._ceff = dyn_at_max / (spec.v_max**2 * spec.f_max_hz)
        # Leakage: P_leak(V) = L0 * exp(V / v0), calibrated so that
        # P_leak(v_max) = leak_fraction * p_max and leakage roughly halves
        # from v_max to v_min.
        self._leak_v0 = (spec.v_max - spec.v_min) / math.log(2.0)
        self._leak0 = (spec.p_max_mw * spec.leak_fraction) / math.exp(
            spec.v_max / self._leak_v0
        )
        self._f_for_power_memo: Dict[float, float] = {}

    # ------------------------------------------------------------------ V/F
    def f_max_at(self, v: float) -> float:
        """Maximum sustainable frequency (Hz) at supply voltage ``v``."""
        s = self.spec
        if not (s.v_min - 1e-9 <= v <= s.v_max + 1e-9):
            raise CharacterizationError(
                f"{s.name}: voltage {v} outside [{s.v_min}, {s.v_max}]"
            )
        return self._k * (v - s.v_threshold) ** s.alpha / v

    def v_for_f(self, f_hz: float) -> float:
        """Minimum voltage sustaining ``f_hz`` (UVFR operating point).

        Below the frequency reachable at ``v_min``, voltage stays at
        ``v_min`` (frequency-only scaling, as in the paper's idle regime).
        """
        s = self.spec
        if f_hz < 0:
            raise CharacterizationError(f"{s.name}: negative frequency {f_hz}")
        if f_hz > self.f_max_at(s.v_max) * (1 + 1e-9):
            raise CharacterizationError(
                f"{s.name}: frequency {f_hz:.3e} exceeds f_max {s.f_max_hz:.3e}"
            )
        if f_hz <= self.f_max_at(s.v_min):
            return s.v_min
        lo, hi = s.v_min, s.v_max
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if self.f_max_at(mid) < f_hz:
                lo = mid
            else:
                hi = mid
        return hi

    # ---------------------------------------------------------------- power
    def leakage_mw(self, v: float) -> float:
        """Leakage power (mW) at voltage ``v``."""
        return self._leak0 * math.exp(v / self._leak_v0)

    def power_mw(self, v: float, f_hz: float) -> float:
        """Total power (mW) at an explicit (V, F) operating point."""
        if f_hz > self.f_max_at(v) * (1 + 1e-6):
            raise CharacterizationError(
                f"{self.spec.name}: F={f_hz:.3e} unsustainable at V={v}"
            )
        return self._ceff * v**2 * f_hz + self.leakage_mw(v)

    def power_at_f(self, f_hz: float) -> float:
        """Power (mW) at frequency ``f_hz`` under UVFR voltage tracking."""
        return self.power_mw(self.v_for_f(f_hz), f_hz)

    def f_for_power(self, p_mw: float) -> float:
        """Largest frequency whose UVFR power is <= ``p_mw``.

        This is the inverse the coin-to-frequency LUT implements: coins
        encode a power entitlement, the LUT returns the frequency target.
        Returns 0.0 when even the idle floor exceeds ``p_mw``.  Memoized
        per curve (see the module docstring); a NaN power raises
        :class:`CharacterizationError`.
        """
        memo = self._f_for_power_memo
        f = memo.get(p_mw)
        if f is None:
            if math.isnan(p_mw):
                raise CharacterizationError(f"{self.spec.name}: power is NaN")
            f = self._solve_f_for_power(p_mw)
            if len(memo) >= F_FOR_POWER_MEMO_BOUND:
                memo.clear()
            memo[p_mw] = f
        return f

    def _solve_f_for_power(self, p_mw: float) -> float:
        """The bisection behind :meth:`f_for_power`."""
        if p_mw <= 0:
            return 0.0
        if p_mw >= self.p_max_mw:
            return self.spec.f_max_hz
        if self.power_at_f(0.0) >= p_mw:
            return 0.0
        lo, hi = 0.0, self.spec.f_max_hz
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if self.power_at_f(mid) > p_mw:
                hi = mid
            else:
                lo = mid
        return lo

    # ------------------------------------------------------------ summaries
    @property
    def p_max_mw(self) -> float:
        """Power at the top operating point (mW)."""
        return self.spec.p_max_mw

    @property
    def p_idle_mw(self) -> float:
        """Idle-tile power floor: min-voltage leakage plus a trickle clock.

        The paper measures a 7.5x saving from frequency scaling below the
        minimum-voltage point, which makes per-tile power gating
        unnecessary (Section V-A).
        """
        p_min_v_max_f = self.power_mw(self.spec.v_min, self.f_max_at(self.spec.v_min))
        return p_min_v_max_f / self.spec.idle_power_ratio

    def sweep(self, n_points: int = 11) -> List[Tuple[float, float, float]]:
        """(V, F_max(V), P(V, F_max(V))) samples across the voltage range."""
        out = []
        for v in np.linspace(self.spec.v_min, self.spec.v_max, n_points):
            f = self.f_max_at(float(v))
            out.append((float(v), f, self.power_mw(float(v), f)))
        return out


# --------------------------------------------------------------------------
# Catalog (Fig. 13 shapes; peak powers calibrated to the SoC budgets).
#
# 3x3 SoC (autonomous vehicle): 3x FFT + 2x Viterbi + 1x NVDLA.
#   3*56 + 2*28 + 176 = 400 mW combined  ->  budgets 120/60 mW = 30%/15%.
# 4x4 SoC (computer vision): 5x GEMM + 4x Conv2D + 4x Vision (13 tiles).
#   5*130 + 4*110 + 4*65 = 1350 mW      ->  budgets 450/900 mW = 33%/66%.
# --------------------------------------------------------------------------
ACCELERATOR_CATALOG: Dict[str, AcceleratorClass] = {
    "FFT": AcceleratorClass(
        name="FFT", v_min=0.50, v_max=1.00, f_max_hz=800e6, p_max_mw=56.0
    ),
    "Viterbi": AcceleratorClass(
        name="Viterbi", v_min=0.50, v_max=1.00, f_max_hz=800e6, p_max_mw=28.0
    ),
    "NVDLA": AcceleratorClass(
        name="NVDLA", v_min=0.60, v_max=1.00, f_max_hz=800e6, p_max_mw=176.0
    ),
    "GEMM": AcceleratorClass(
        name="GEMM", v_min=0.60, v_max=0.90, f_max_hz=600e6, p_max_mw=130.0
    ),
    "Conv2D": AcceleratorClass(
        name="Conv2D", v_min=0.60, v_max=0.90, f_max_hz=600e6, p_max_mw=110.0
    ),
    "Vision": AcceleratorClass(
        name="Vision", v_min=0.60, v_max=0.90, f_max_hz=600e6, p_max_mw=65.0
    ),
}

_CURVE_CACHE: Dict[str, PowerFrequencyCurve] = {}


def get_curve(name: str) -> PowerFrequencyCurve:
    """Curve for a catalog accelerator class (cached)."""
    if name not in ACCELERATOR_CATALOG:
        raise CharacterizationError(
            f"unknown accelerator class {name!r}; "
            f"known: {sorted(ACCELERATOR_CATALOG)}"
        )
    if name not in _CURVE_CACHE:
        _CURVE_CACHE[name] = PowerFrequencyCurve(ACCELERATOR_CATALOG[name])
    return _CURVE_CACHE[name]
