"""Tests for coin-pool sizing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.power.allocation import AllocationStrategy
from repro.power.budget import (
    MAX_COINS_PER_TILE,
    CoinBudgetError,
    build_pooled_budget,
)

RP = AllocationStrategy.RELATIVE_PROPORTIONAL
AP = AllocationStrategy.ABSOLUTE_PROPORTIONAL


class TestPooledBudget:
    def test_small_budget_pool_is_63_coins(self):
        # budget < largest p_max: the whole budget must fit one counter.
        budget = build_pooled_budget(RP, {1: 176.0, 2: 56.0}, 120.0)
        assert budget.pool == MAX_COINS_PER_TILE

    def test_single_tile_can_hold_all_it_can_use(self):
        """A lone active tile must be able to hold every coin it can
        actually convert to frequency (min of budget and its p_max)."""
        budget = build_pooled_budget(RP, {1: 176.0, 2: 56.0}, 120.0)
        usable = min(120.0, 176.0)
        assert usable / budget.coin_value_mw <= MAX_COINS_PER_TILE + 1e-9

    def test_large_budget_pool_exceeds_63(self):
        """Many-tile SoCs with budgets above any single tile's p_max get
        a pool larger than one counter, so per-tile quantization stays
        fine-grained (the 63-coin limit is per tile, not per SoC)."""
        p_max = {t: 56.0 for t in range(60)}
        p_max[0] = 176.0
        budget = build_pooled_budget(RP, p_max, 1000.0)
        assert budget.pool > MAX_COINS_PER_TILE
        assert budget.coin_value_mw == pytest.approx(176.0 / 63)

    def test_coin_value_is_budget_over_63(self):
        budget = build_pooled_budget(RP, {1: 176.0}, 126.0)
        assert budget.coin_value_mw == pytest.approx(2.0)

    def test_active_target_gets_at_least_one_coin(self):
        budget = build_pooled_budget(RP, {1: 500.0, 2: 1.0}, 100.0)
        assert budget.max_by_tile[2] >= 1

    def test_invalid_max_coins_rejected(self):
        with pytest.raises(CoinBudgetError):
            build_pooled_budget(RP, {1: 10.0}, 5.0, max_coins=0)

    @given(
        st.dictionaries(
            st.integers(0, 8), st.floats(5.0, 400.0), min_size=1, max_size=9
        ),
        st.floats(20.0, 1000.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_targets_representable_property(self, p_max, budget_mw):
        budget = build_pooled_budget(RP, p_max, budget_mw)
        for t, coins in budget.max_by_tile.items():
            assert 0 <= coins <= MAX_COINS_PER_TILE

    @given(
        st.dictionaries(
            st.integers(0, 8), st.floats(5.0, 400.0), min_size=2, max_size=9
        ),
        st.floats(20.0, 1000.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_ap_vs_rp_pool_covers_budget_property(self, p_max, budget_mw):
        for strategy in (AP, RP):
            budget = build_pooled_budget(strategy, p_max, budget_mw)
            assert budget.pool >= 1
            assert budget.pool * budget.coin_value_mw == pytest.approx(
                budget_mw, rel=0.5 / MAX_COINS_PER_TILE + 1e-6
            )
