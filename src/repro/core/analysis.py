"""Analytical convergence insights (Section III-E).

The paper proves that a pairwise exchange never increases the global
error E by case analysis on the initial ratios beta_i >= beta_j relative
to the target alpha.  This module implements that classification plus a
local-minimum (deadlock) detector, both used by the property tests and
by the random-pairing ablation.
"""

from __future__ import annotations

import enum
from typing import List, Sequence

from repro.core.coins import TileCoins, pairwise_exchange
from repro.noc.topology import MeshTopology


class ExchangeCase(enum.Enum):
    """The four cases of Section III-E (i is the coin-rich tile)."""

    BOTH_ABOVE = 1  # beta_i >= beta' >= beta_j >= alpha : E constant
    STRADDLE_HIGH = 2  # beta_i >= beta' >= alpha >= beta_j : E decreases
    STRADDLE_LOW = 3  # beta_i >= alpha >= beta' >= beta_j : E decreases
    BOTH_BELOW = 4  # alpha >= beta_i >= beta' >= beta_j : E constant


def classify_exchange(
    i: TileCoins, j: TileCoins, alpha: float
) -> ExchangeCase:
    """Classify a pairwise exchange against the global target ratio.

    ``i`` and ``j`` may be given in either order; the classification uses
    the coin-rich tile as the paper's tile *i*.  Requires both tiles to
    be active (max > 0) so the ratios are finite.
    """
    if i.max <= 0 or j.max <= 0:
        raise ValueError("classification requires two active tiles")
    hi, lo = (i, j) if i.ratio >= j.ratio else (j, i)
    result = pairwise_exchange(hi, lo)
    prime = (hi.has + result.deltas[0]) / hi.max
    if lo.ratio >= alpha:
        return ExchangeCase.BOTH_ABOVE
    if hi.ratio <= alpha:
        return ExchangeCase.BOTH_BELOW
    if prime >= alpha:
        return ExchangeCase.STRADDLE_HIGH
    return ExchangeCase.STRADDLE_LOW


def pair_error(
    i: TileCoins, j: TileCoins, alpha: float
) -> float:
    """E_i + E_j for the two tiles against target ratio ``alpha``."""
    return abs(i.has - alpha * i.max) + abs(j.has - alpha * j.max)


def is_local_minimum(
    has: Sequence[int],
    max_: Sequence[int],
    topology: MeshTopology,
    *,
    wrap_around: bool = True,
) -> bool:
    """True when no neighbor exchange can move any coins, yet E > 0.

    This is the deadlock condition of Section III-E: coins cannot flow
    between adjacent tiles although some non-adjacent pair (a, b) has
    beta_a > alpha > beta_b.  Random pairing exists precisely to escape
    these states.
    """
    n = topology.n_tiles
    if len(has) != n or len(max_) != n:
        raise ValueError("vectors must cover the whole grid")
    sum_max = sum(max_)
    if sum_max == 0:
        return False
    alpha = sum(has) / sum_max
    residual = sum(abs(h - alpha * m) for h, m in zip(has, max_)) / n
    if residual <= 0.5:  # already at quantization floor
        return False
    for t in range(n):
        neighbors = (
            topology.torus_neighbors(t)
            if wrap_around
            else topology.mesh_neighbors(t)
        )
        for nb in neighbors:
            result = pairwise_exchange(
                TileCoins(has[t], max_[t]), TileCoins(has[nb], max_[nb])
            )
            if any(result.deltas):
                return False
    return True


def build_deadlock_grid(d: int = 3) -> List[int]:
    """Max-coin layout on a d x d grid that can deadlock without random
    pairing: a single active tile surrounded by inactive ones, with a
    second active tile beyond the neighborhood.

    Returns the ``max`` vector; pair it with coins concentrated on the
    inactive ring to construct a stuck state in tests.
    """
    if d < 3:
        raise ValueError(f"need at least a 3x3 grid, got d={d}")
    topo = MeshTopology(d, d)
    max_ = [0] * topo.n_tiles
    center = topo.center_tile()
    max_[center] = 8
    corner = 0
    if corner in topo.torus_neighbors(center):
        corner = topo.tile_id(d - 1, d - 1)
    max_[corner] = 8
    return max_
