"""Analytical scaling models (Section V-E, Figs. 1 and 21)."""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "model": [
            "PAPER_TAUS_US",
            "ResponseScalingModel",
            "ScalingError",
            "fit_tau_us",
            "n_max_curve",
            "pm_overhead_curve",
            "workload_interval_us",
        ],
    },
)
