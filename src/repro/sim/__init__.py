"""Discrete-event simulation kernel shared by every BlitzCoin substrate.

The kernel keeps time in integer *NoC cycles* (the paper's NoC runs at
800 MHz, so one cycle is 1.25 ns).  All higher-level components — the
mesh NoC, the coin-exchange engine, the DVFS actuators, the SoC workload
executor — schedule callbacks on a single :class:`Simulator` instance.
"""

from repro import lazy_exports

NOC_FREQUENCY_HZ = 800e6
"""NoC clock frequency of the fabricated SoC (Section V-A of the paper)."""

CYCLE_TIME_S = 1.0 / NOC_FREQUENCY_HZ
"""Duration of one NoC cycle in seconds (1.25 ns at 800 MHz)."""


def cycles_to_us(cycles: float) -> float:
    """Convert a duration in NoC cycles to microseconds."""
    return cycles * CYCLE_TIME_S * 1e6


def us_to_cycles(us: float) -> int:
    """Convert a duration in microseconds to whole NoC cycles (rounded)."""
    return int(round(us * 1e-6 * NOC_FREQUENCY_HZ))


__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "kernel": ["Event", "SimulationError", "Simulator"],
        "rng": ["SeedSequenceError", "spawn_rng"],
        "trace": ["StateTrace", "TraceRecorder"],
    },
)
__all__ += ["CYCLE_TIME_S", "NOC_FREQUENCY_HZ", "cycles_to_us", "us_to_cycles"]
