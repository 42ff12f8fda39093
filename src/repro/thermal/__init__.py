"""Thermal substrate: tile-grid RC model and hotspot governance.

Section III-A: "Global thermal caps can be enforced by the initial
configuration of the coin pool ... Hotspot issues are local in nature
and can be addressed by augmenting the algorithm to reject coins."
This package closes that loop: an RC thermal network computes per-tile
temperatures from the recorded (or live) power, and a governor writes
BlitzCoin's runtime thermal caps when a tile crosses its limit.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "governor": ["ThermalGovernor"],
        "model": [
            "ThermalConfig",
            "ThermalError",
            "ThermalGrid",
            "simulate_run_thermals",
        ],
    },
)
