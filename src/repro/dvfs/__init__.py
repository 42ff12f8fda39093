"""Per-tile DVFS actuation: the UVFR scheme of Section IV.

Behavioral models of the analog/mixed-signal blocks the paper designed
in 12 nm:

* :class:`DigitalLdo` — digitally-controlled low-drop-out regulator with
  first-order settling.
* :class:`RingOscillator` — free-running critical-path-replica oscillator
  whose frequency tracks the supply voltage.
* :class:`CounterTdc` — counter-based time-to-digital converter turning
  the oscillator clock into a digital frequency readout.
* :class:`PidController` — the LDO control-loop filter.
* :class:`UvfrLoop` — the closed unified voltage-and-frequency loop:
  frequency target in, LDO code out, oscillator tracks.
* :class:`ConventionalDualLoop` — the guard-banded separate V/F scheme of
  Fig. 9, kept as an ablation comparator.
* :class:`CoinLut` — the per-tile lookup table converting coin counts to
  frequency targets.
* :class:`TileActuator` — the event-driven behavioral wrapper the SoC
  simulator uses (settle delay + instantaneous power readout).
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "actuator": ["ConventionalDualLoop", "TileActuator"],
        "droop": [
            "ConventionalDroopResult",
            "DroopEvent",
            "DroopSimulator",
            "UvfrDroopResult",
        ],
        "ldo": ["DigitalLdo", "LdoError"],
        "lut": ["CoinLut"],
        "oscillator": ["RingOscillator"],
        "pid": ["PidController"],
        "tdc": ["CounterTdc"],
        "uvfr": ["UvfrLoop", "UvfrSettleResult"],
    },
)
