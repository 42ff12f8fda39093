"""Power models: accelerator characterization, allocation, budgets.

The characterization curves are analytic fits that reproduce the shapes
and ranges of Fig. 13 of the paper (ASIC measurements for FFT / Viterbi /
NVDLA, Cadence Joules data for GEMM / Conv2D / Vision).  Allocation
strategies and coin-pool accounting implement Section V-B.
"""

from repro.power.area import (
    PRIOR_ART_OVERHEADS,
    AreaError,
    TileAreaBudget,
    comparison_rows,
)
from repro.power.allocation import (
    AllocationError,
    AllocationStrategy,
    absolute_proportional,
    relative_proportional,
)
from repro.power.budget import (
    MAX_COINS_PER_TILE,
    CoinBudget,
    CoinBudgetError,
    build_pooled_budget,
)
from repro.power.characterization import (
    ACCELERATOR_CATALOG,
    AcceleratorClass,
    CharacterizationError,
    PowerFrequencyCurve,
    get_curve,
)

__all__ = [
    "ACCELERATOR_CATALOG",
    "AcceleratorClass",
    "AreaError",
    "PRIOR_ART_OVERHEADS",
    "TileAreaBudget",
    "comparison_rows",
    "AllocationError",
    "AllocationStrategy",
    "CharacterizationError",
    "CoinBudget",
    "CoinBudgetError",
    "MAX_COINS_PER_TILE",
    "build_pooled_budget",
    "PowerFrequencyCurve",
    "absolute_proportional",
    "get_curve",
    "relative_proportional",
]
