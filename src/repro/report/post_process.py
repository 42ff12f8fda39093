"""Post-processing of recorded SoC runs (the artifact's post_process.py).

The paper's RTL flow exports waveform CSVs and reconstructs the power
traces and efficiency metrics offline (Artifact Appendix E/F).  These
helpers do the same against a :class:`~repro.soc.executor.SocRunResult`.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.power.characterization import get_curve
from repro.sim import NOC_FREQUENCY_HZ, cycles_to_us
from repro.soc.executor import SocRunResult


def reconstruct_power_trace(
    run: SocRunResult,
    soc_config,
    n_points: int = 500,
) -> Dict[str, np.ndarray]:
    """Rebuild per-tile power from the *frequency* traces alone.

    This mirrors the paper's methodology exactly: "we extract each
    tile's instant frequency at each time step, based on its LDO
    setting, and use it to reconstruct its power trace based on the
    data from Fig. 13" (Section V-A).  It deliberately ignores the
    recorded power samples, so tests can cross-check the two paths.
    """
    times = np.linspace(0, run.makespan_cycles, n_points)
    out: Dict[str, np.ndarray] = {"time_us": times * cycles_to_us(1)}
    total = np.zeros(n_points)
    for tid in run.managed_tiles:
        f_trace = run.recorder.get(f"freq/{tid}")
        a_trace = run.recorder.get(f"active/{tid}")
        curve = get_curve(soc_config.class_of(tid))
        series = np.zeros(n_points)
        for k, t in enumerate(times):
            active = a_trace is not None and a_trace.value_at(int(t)) > 0
            f = f_trace.value_at(int(t)) if f_trace is not None else 0.0
            series[k] = (
                curve.power_at_f(f) if active else curve.p_idle_mw
            )
        out[f"tile_{tid}_mw"] = series
        total += series
    out["total_mw"] = total
    return out


def throughput_per_watt(run: SocRunResult) -> float:
    """Completed accelerator-cycles per second per watt — the closest
    aggregate efficiency metric a heterogeneous SoC admits."""
    avg_w = run.average_power_mw() / 1000.0
    if avg_w <= 0 or run.makespan_cycles <= 0:
        return 0.0
    # Work completed is implicit in the task set; approximate with the
    # frequency-trace integral over active periods.
    executed = 0.0
    for tid in run.managed_tiles:
        trace = run.recorder.get(f"freq/{tid}")
        if trace is not None:
            executed += trace.integral(0, run.makespan_cycles)
    executed /= NOC_FREQUENCY_HZ  # cycle-weighted -> accelerator cycles
    seconds = run.makespan_cycles / NOC_FREQUENCY_HZ
    return executed / seconds / avg_w
