"""Fig. 13: accelerator power/frequency characterization."""

import math

from repro.experiments import fig13_power_curves
from repro.perf import register
from repro.power.characterization import get_curve


@register("fig13.power_curves", suites=("figures",))
def power_curves():
    """Fig. 13: published V ranges, power ordering and ~7.5x idle scaling."""
    result = fig13_power_curves.run()

    # Shape: the published ranges.  ASIC-measured tiles span 0.5-1.0 V
    # (0.6-1.0 V for NVDLA); Joules-characterized tiles span 0.6-0.9 V.
    # Exact up to float rounding (relative 1e-6).
    assert math.isclose(
        result.curves["FFT"].samples[0][0], 0.5, rel_tol=1e-6, abs_tol=1e-12
    )
    assert math.isclose(
        result.curves["NVDLA"].samples[0][0], 0.6, rel_tol=1e-6, abs_tol=1e-12
    )
    assert math.isclose(
        result.curves["GEMM"].samples[-1][0], 0.9, rel_tol=1e-6, abs_tol=1e-12
    )

    # Power ordering at the top point: NVDLA > GEMM > Conv2D > Vision >
    # FFT > Viterbi, with a large overall spread.
    peaks = {n: c.p_range_mw[1] for n, c in result.curves.items()}
    assert (
        peaks["NVDLA"]
        > peaks["GEMM"]
        > peaks["Conv2D"]
        > peaks["Vision"]
        > peaks["FFT"]
        > peaks["Viterbi"]
    )
    assert result.dynamic_range() > 4.0

    # Idle scaling below minimum voltage: ~7.5x additional power saving
    # (Section V-A).
    metrics = {f"peak_mw.{n}": p for n, p in peaks.items()}
    metrics["dynamic_range"] = result.dynamic_range()
    for name in ("FFT", "NVDLA"):
        c = get_curve(name)
        p_min_point = c.power_mw(c.spec.v_min, c.f_max_at(c.spec.v_min))
        assert math.isclose(
            p_min_point / c.p_idle_mw, 7.5, rel_tol=1e-6, abs_tol=1e-12
        )
        metrics[f"idle_saving.{name}"] = p_min_point / c.p_idle_mw
    return metrics
