"""Power models: accelerator characterization, allocation, budgets.

The characterization curves are analytic fits that reproduce the shapes
and ranges of Fig. 13 of the paper (ASIC measurements for FFT / Viterbi /
NVDLA, Cadence Joules data for GEMM / Conv2D / Vision).  Allocation
strategies and coin-pool accounting implement Section V-B.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "area": [
            "PRIOR_ART_OVERHEADS",
            "AreaError",
            "TileAreaBudget",
            "comparison_rows",
        ],
        "allocation": [
            "AllocationError",
            "AllocationStrategy",
            "absolute_proportional",
            "relative_proportional",
        ],
        "budget": [
            "MAX_COINS_PER_TILE",
            "CoinBudget",
            "CoinBudgetError",
            "build_pooled_budget",
        ],
        "characterization": [
            "ACCELERATOR_CATALOG",
            "AcceleratorClass",
            "CharacterizationError",
            "PowerFrequencyCurve",
            "get_curve",
        ],
    },
)
