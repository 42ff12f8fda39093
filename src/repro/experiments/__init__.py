"""Experiment drivers: one module per paper figure/table.

Each module exposes a ``run(...)`` returning a structured result with
the same rows/series the paper reports; the benchmark harness prints
them and asserts the expected shape (who wins, rough factors,
crossovers).  All drivers are seeded and take a ``trials``/``quick``
knob so benches stay fast while full runs remain available.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "fault_sweep": [],
        "fig01_scalability": [],
        "fig03_convergence": [],
        "fig04_tokensmart": [],
        "fig06_dynamic_timing": [],
        "fig07_random_pairing": [],
        "fig08_heterogeneity": [],
        "fig13_power_curves": [],
        "fig16_power_traces": [],
        "fig17_3x3_eval": [],
        "fig18_4x4_eval": [],
        "fig19_silicon": [],
        "fig20_response": [],
        "fig21_scaling": [],
        "streaming": [],
        "sustained_load": [],
        "table1": [],
    },
)
