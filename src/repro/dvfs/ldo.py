"""Digitally-controlled LDO regulator model.

The paper's tile supply is generated by a fully-synthesizable LDO from
a fixed input rail (Section IV-A).  The model exposes the digital
control interface (an integer code selecting the output level) and
first-order analog settling between levels, which is what the UVFR loop
and the silicon clock-transition measurement (Fig. 19) observe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.obs import runtime as _obs


class LdoError(ValueError):
    """Raised for invalid LDO configuration or codes."""


@dataclass
class DigitalLdo:
    """LDO with ``n_codes`` output levels between ``v_out_min``/``v_out_max``.

    The output follows a code change exponentially with time constant
    ``tau_cycles`` (in NoC cycles), the dominant pole of the pass device
    plus decap.
    """

    v_in: float = 1.0
    v_out_min: float = 0.5
    v_out_max: float = 0.98
    n_codes: int = 64
    tau_cycles: float = 80.0  # ~100 ns at 800 MHz

    def __post_init__(self) -> None:
        if not (0.0 < self.v_out_min < self.v_out_max <= self.v_in):
            raise LdoError(
                "need 0 < v_out_min < v_out_max <= v_in, got "
                f"({self.v_out_min}, {self.v_out_max}, {self.v_in})"
            )
        if self.n_codes < 2:
            raise LdoError(f"n_codes must be >= 2, got {self.n_codes}")
        if self.tau_cycles <= 0:
            raise LdoError(f"tau_cycles must be > 0, got {self.tau_cycles}")
        self._code = 0
        self._v_start = self.v_for_code(0)
        self._t_start = 0

    # ---------------------------------------------------------------- codes
    def v_for_code(self, code: int) -> float:
        """Output voltage selected by ``code`` (clamped to range)."""
        if not (0 <= code < self.n_codes):
            raise LdoError(f"code {code} outside [0, {self.n_codes})")
        step = (self.v_out_max - self.v_out_min) / (self.n_codes - 1)
        return self.v_out_min + code * step

    @property
    def code(self) -> int:
        """Currently latched control code."""
        return self._code

    # -------------------------------------------------------------- dynamics
    def set_code(self, code: int, now: int) -> None:
        """Latch a new code at time ``now``; output starts settling."""
        self._v_start = self.v_out(now)
        self._t_start = now
        self._code = code
        if _obs.sink is not None:
            _obs.sink.inc("dvfs.ldo_transitions", now)

    def v_out(self, now: int) -> float:
        """Output voltage at time ``now`` (first-order settle)."""
        if now < self._t_start:
            raise LdoError(
                f"time went backwards ({now} < {self._t_start})"
            )
        target = self.v_for_code(self._code)
        dt = now - self._t_start
        return target + (self._v_start - target) * math.exp(-dt / self.tau_cycles)

    def settle_cycles(self, tolerance_v: float = 0.005) -> int:
        """Cycles until the output is within ``tolerance_v`` of target.

        Conservative bound from the full output range.
        """
        if tolerance_v <= 0:
            raise LdoError(f"tolerance must be > 0, got {tolerance_v}")
        swing = self.v_out_max - self.v_out_min
        if swing <= tolerance_v:
            return 0
        return int(math.ceil(self.tau_cycles * math.log(swing / tolerance_v)))
