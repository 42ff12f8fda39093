"""Coin-pool accounting: translating a power budget into coins.

A *coin* is the quantum of power entitlement (Section III-A).  The pool
size is fixed at configuration time to the SoC budget; per-tile ``max``
values encode the allocation strategy.  The hardware's 6-bit coin counter
caps any one tile at 63 coins (plus a sign bit for transient underflow),
so the coin value is sized from the largest per-tile target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from repro.power.allocation import AllocationStrategy, allocate

COIN_COUNTER_BITS = 6
MAX_COINS_PER_TILE = 2**COIN_COUNTER_BITS - 1  # 63 (sign bit held separately)


class CoinBudgetError(ValueError):
    """Raised for infeasible coin-pool configurations."""


@dataclass(frozen=True)
class CoinBudget:
    """A sized coin pool with per-tile targets.

    Attributes
    ----------
    coin_value_mw:
        Power represented by one coin.
    pool:
        Total coins circulating among the managed tiles.
    max_by_tile:
        Per-tile target coin counts (the ``max`` register of each tile).
    """

    coin_value_mw: float
    pool: int
    max_by_tile: Dict[int, int]


def build_pooled_budget(
    strategy: AllocationStrategy,
    p_max_by_tile: Mapping[int, float],
    budget_mw: float,
    *,
    max_coins: int = MAX_COINS_PER_TILE,
) -> CoinBudget:
    """Size the pool so no tile ever *needs* more than its 6-bit counter.

    The 63-coin limit is per tile, not per SoC.  The largest holding a
    tile can usefully carry is ``min(budget, its own p_max)`` — beyond
    that the LUT is already at f_max — so the coin value is sized from
    ``min(budget, max p_max) / 63``.  A lone active tile can then absorb
    every coin it can use (the "full budget utilization" property of
    Section VI-A), while large SoCs still get a pool much bigger than 63
    coins and therefore fine-grained allocation across many tiles —
    with a 63-coin pool, sixty active tiles would hold one coin each and
    quantization would swamp the proportional strategy.

    Per-tile ``max`` values are the rounded strategy targets (at least
    one coin for any tile with a positive target, so no active tile is
    starved by quantization).
    """
    if max_coins < 1:
        raise CoinBudgetError(f"max_coins must be >= 1, got {max_coins}")
    targets = allocate(strategy, p_max_by_tile, budget_mw)
    biggest_useful = min(budget_mw, max(p_max_by_tile.values()))
    coin_value = biggest_useful / max_coins
    pool = max(1, int(round(budget_mw / coin_value)))
    max_by_tile = {
        t: max(1, int(round(p / coin_value))) if p > 0 else 0
        for t, p in targets.items()
    }
    return CoinBudget(
        coin_value_mw=coin_value, pool=pool, max_by_tile=max_by_tile
    )
