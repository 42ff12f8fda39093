"""The integer exchange kernels against a reference on TileCoins.

``pair_deltas`` and ``group_deltas`` are the arithmetic the engine runs
on every exchange.  The reference below is the exchange code written
on :class:`TileCoins` and :class:`ExchangeResult`, clamping through a
cap helper and rounding through a share helper.  Hypothesis checks
that both kernels, and ``pairwise_exchange`` over the pair kernel, give
the same deltas on random counts, targets, caps and shake, and the explicit
examples pin the zero-max, cap-overflow-abort and spill branches.
"""

from typing import List, Optional, Sequence, Tuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.coins import (
    CoinStateError,
    ExchangeResult,
    TileCoins,
    group_deltas,
    pair_deltas,
    pairwise_exchange,
)
from tests.strategies import CAP, HAS, MAX

# ------------------------------------------------------------- reference


def _apply_cap(target: int, cap: Optional[int]) -> int:
    return target if cap is None else min(target, cap)


def _rounded_share(total: int, weight: int, sum_weights: int) -> int:
    return (2 * total * weight + sum_weights) // (2 * sum_weights)


def _fair_pair_targets(
    i: TileCoins, j: TileCoins, shake: bool
) -> Tuple[int, int]:
    sum_max = i.max + j.max
    total = i.has + j.has
    fair_i = total * i.max
    fair_j = total * j.max
    base_i = fair_i // sum_max
    base_j = fair_j // sum_max
    rem = total - base_i - base_j
    if rem == 0:
        return base_i, base_j
    err_a = abs((base_i + rem) * sum_max - fair_i) + abs(
        base_j * sum_max - fair_j
    )
    err_b = abs(base_i * sum_max - fair_i) + abs(
        (base_j + rem) * sum_max - fair_j
    )
    if err_a < err_b:
        return base_i + rem, base_j
    if err_b < err_a:
        return base_i, base_j + rem
    move_a = abs(base_i + rem - i.has)
    move_b = abs(base_i - i.has)
    if shake:
        if move_a >= move_b:
            return base_i + rem, base_j
        return base_i, base_j + rem
    if move_a <= move_b:
        return base_i + rem, base_j
    return base_i, base_j + rem


def reference_pairwise(
    i: TileCoins,
    j: TileCoins,
    cap_i: Optional[int] = None,
    cap_j: Optional[int] = None,
    shake: bool = False,
) -> ExchangeResult:
    total = i.has + j.has
    if i.max + j.max == 0:
        return ExchangeResult((0, 0))
    target_i, _ = _fair_pair_targets(i, j, shake)
    target_i = _apply_cap(target_i, cap_i)
    target_j = total - target_i
    capped_j = _apply_cap(target_j, cap_j)
    if capped_j != target_j:
        overflow = target_j - capped_j
        target_j = capped_j
        roomy_i = _apply_cap(target_i + overflow, cap_i)
        leftover = target_i + overflow - roomy_i
        target_i = roomy_i
        if leftover:
            return ExchangeResult((0, 0))
    return ExchangeResult((target_i - i.has, target_j - j.has))


def reference_group(
    states: Sequence[TileCoins],
    caps: Optional[Sequence[Optional[int]]] = None,
) -> ExchangeResult:
    total = sum(s.has for s in states)
    sum_max = sum(s.max for s in states)
    if sum_max == 0:
        return ExchangeResult(tuple(0 for _ in states))
    targets: List[int] = []
    for idx, s in enumerate(states):
        t = _rounded_share(total, s.max, sum_max)
        targets.append(_apply_cap(t, caps[idx] if caps is not None else None))
    remainder = total - sum(targets)
    center_cap = caps[0] if caps is not None else None
    adjusted = _apply_cap(targets[0] + remainder, center_cap)
    spill = targets[0] + remainder - adjusted
    targets[0] = adjusted
    if spill:
        order = sorted(
            range(1, len(states)), key=lambda k: states[k].max, reverse=True
        )
        for k in order:
            cap_k = caps[k] if caps is not None else None
            roomy = _apply_cap(targets[k] + spill, cap_k)
            spill -= roomy - targets[k]
            targets[k] = roomy
            if spill == 0:
                break
        if spill:
            return ExchangeResult(tuple(0 for _ in states))
    return ExchangeResult(tuple(t - s.has for t, s in zip(targets, states)))


# ------------------------------------------------------------ strategies
#: Small counts, so caps bind, overflow and spill often; the shared
#: adversarial ranges cover the huge and negative ones.
SMALL_HAS = st.integers(-8, 64)
SMALL_MAX = st.integers(0, 16)
SMALL_CAP = st.one_of(st.none(), st.integers(0, 40))
COUNT = st.one_of(SMALL_HAS, HAS)
TARGET = st.one_of(SMALL_MAX, MAX)
LIMIT = st.one_of(SMALL_CAP, CAP)


@st.composite
def groups(draw) -> Tuple[List[int], List[int], Optional[List[Optional[int]]]]:
    n = draw(st.integers(1, 6))
    has = draw(st.lists(COUNT, min_size=n, max_size=n))
    maxes = draw(st.lists(TARGET, min_size=n, max_size=n))
    caps = draw(st.one_of(st.none(), st.lists(LIMIT, min_size=n, max_size=n)))
    return has, maxes, caps


# ----------------------------------------------------------------- tests
# (has_i, max_i, has_j, max_j, cap_i, cap_j, shake) rows that take the
# kernel's rare branches.
PAIR_BRANCHES = {
    "zero-max": (5, 0, 7, 0, None, None, False),
    "cap-overflow-abort": (0, 4, 20, 4, 5, 12, False),
    "overflow-kept-by-i": (0, 4, 20, 4, None, 6, False),
    "capped-i": (20, 4, 0, 4, 3, None, False),
    "tie-shake": (1, 1, 0, 1, None, None, True),
    "tie-still": (1, 1, 0, 1, None, None, False),
}

# (has, maxes, caps) rows for the group kernel.
GROUP_BRANCHES = {
    "zero-max": ([3, 4, 5], [0, 0, 0], None),
    "spill-absorbed": ([40, 0, 0, 0], [8, 8, 2, 8], [5, 14, None, 12]),
    "spill-abort": ([40, 0, 0], [8, 8, 8], [5, 10, 10]),
    "capped-neighbor": ([0, 30, 0], [4, 4, 4], [None, 2, None]),
}


class TestPairKernel:
    @given(
        h_i=COUNT, m_i=TARGET, h_j=COUNT, m_j=TARGET,
        cap_i=LIMIT, cap_j=LIMIT, shake=st.booleans(),
    )
    @settings(max_examples=500)
    @example(*PAIR_BRANCHES["zero-max"])
    @example(*PAIR_BRANCHES["cap-overflow-abort"])
    @example(*PAIR_BRANCHES["overflow-kept-by-i"])
    @example(*PAIR_BRANCHES["tie-shake"])
    def test_matches_reference(self, h_i, m_i, h_j, m_j, cap_i, cap_j, shake):
        i, j = TileCoins(h_i, m_i), TileCoins(h_j, m_j)
        expected = reference_pairwise(i, j, cap_i, cap_j, shake).deltas
        assert pair_deltas(h_i, m_i, h_j, m_j, cap_i, cap_j, shake) == expected
        assert pairwise_exchange(i, j, cap_i, cap_j, shake).deltas == expected

    def test_examples_take_their_branches(self):
        rows = {
            name: pair_deltas(*row) for name, row in PAIR_BRANCHES.items()
        }
        assert rows["zero-max"] == (0, 0)
        # Uncapped, 10 coins would move; capped, i takes 5, j's cap
        # sends 3 of j's 15 back to i, whose cap refuses them: abort.
        assert pair_deltas(0, 4, 20, 4) == (10, -10)
        assert rows["cap-overflow-abort"] == (0, 0)
        assert rows["overflow-kept-by-i"] == (14, -14)
        assert rows["capped-i"] == (-17, 17)
        assert rows["tie-shake"] == (-1, 1)
        assert rows["tie-still"] == (0, 0)


class TestGroupKernel:
    @given(group=groups())
    @settings(max_examples=500)
    @example(group=GROUP_BRANCHES["zero-max"])
    @example(group=GROUP_BRANCHES["spill-absorbed"])
    @example(group=GROUP_BRANCHES["spill-abort"])
    def test_matches_reference(self, group):
        has, maxes, caps = group
        states = [TileCoins(h, m) for h, m in zip(has, maxes)]
        expected = reference_group(states, caps).deltas
        assert group_deltas(has, maxes, caps) == expected

    def test_examples_take_their_branches(self):
        rows = {
            name: group_deltas(*row) for name, row in GROUP_BRANCHES.items()
        }
        assert rows["zero-max"] == (0, 0, 0)
        # Center capped at 5 spills 8 coins, largest max first: tile 1
        # takes 2 up to its cap, tile 3 is at its cap, tile 2 takes 6.
        assert rows["spill-absorbed"] == (-35, 14, 9, 12)
        assert rows["spill-abort"] == (0, 0, 0)
        # Tile 1's cap leaves 8 coins over; the center absorbs them.
        assert rows["capped-neighbor"] == (18, -28, 10)

    def test_rejects_empty_group_and_short_caps(self):
        with pytest.raises(CoinStateError, match="at least one tile"):
            group_deltas([], [])
        with pytest.raises(CoinStateError, match="caps length 2"):
            group_deltas([1], [1], [None, None])


def test_unbalanced_deltas_message():
    with pytest.raises(
        CoinStateError,
        match=r"exchange must conserve coins, deltas \(1, 2\) sum to 3",
    ):
        ExchangeResult((1, 2))
