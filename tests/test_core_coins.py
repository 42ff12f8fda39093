"""Tests for the coin-exchange arithmetic, including property tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coins import (
    CoinStateError,
    ExchangeResult,
    TileCoins,
    group_deltas,
    pairwise_exchange,
)

tile = st.builds(
    TileCoins,
    has=st.integers(-10, 200),
    max=st.integers(0, 64),
)
active_tile = st.builds(
    TileCoins,
    has=st.integers(0, 200),
    max=st.integers(1, 64),
)


class TestTileCoins:
    def test_ratio(self):
        assert TileCoins(3, 8).ratio == pytest.approx(0.375)

    def test_zero_max_with_coins_is_infinite_ratio(self):
        assert TileCoins(5, 0).ratio == float("inf")

    def test_zero_max_without_coins_is_zero_ratio(self):
        assert TileCoins(0, 0).ratio == 0.0

    def test_negative_max_rejected(self):
        with pytest.raises(CoinStateError):
            TileCoins(0, -1)


class TestExchangeResult:
    def test_nonconserving_deltas_rejected(self):
        with pytest.raises(CoinStateError):
            ExchangeResult((1, 2))


class TestPairwiseExchange:
    def test_fig2_example_equalizes_ratios(self):
        # Fig. 2's 1-way step: center has/max = 3/8 exchanging with a
        # neighbor; ratios must match within one coin afterwards.
        i = TileCoins(3, 8)
        j = TileCoins(9, 8)
        result = pairwise_exchange(i, j)
        hi, hj = i.has + result.deltas[0], j.has + result.deltas[1]
        assert hi + hj == 12
        assert abs(hi - hj) <= 1

    def test_inactive_tile_relinquishes_all_coins(self):
        i = TileCoins(10, 0)
        j = TileCoins(2, 8)
        result = pairwise_exchange(i, j)
        assert result.deltas == (-10, 10)

    def test_both_inactive_no_exchange(self):
        assert pairwise_exchange(TileCoins(4, 0), TileCoins(0, 0)).deltas == (0, 0)

    def test_proportional_split_respects_max_weights(self):
        i = TileCoins(30, 10)
        j = TileCoins(0, 30)
        result = pairwise_exchange(i, j)
        hi = i.has + result.deltas[0]
        hj = j.has + result.deltas[1]
        # Fair ratios: 30 coins at weights 1:3.
        assert abs(hi / 10 - hj / 30) * 10 <= 1.5

    def test_converged_pair_is_fixed_point(self):
        i = TileCoins(12, 8)
        j = TileCoins(12, 8)
        assert pairwise_exchange(i, j).deltas == (0, 0)

    def test_exchange_is_initiator_symmetric_at_convergence(self):
        # The canonical rounding must not ping-pong a coin depending on
        # who initiates (the livelock fixed in the engine).
        i = TileCoins(3, 8)
        j = TileCoins(2, 8)
        r_ij = pairwise_exchange(i, j)
        r_ji = pairwise_exchange(j, i)
        assert r_ij.deltas == (0, 0)
        assert r_ji.deltas == (0, 0)

    def test_cap_clamps_receiver(self):
        i = TileCoins(60, 8)
        j = TileCoins(0, 8)
        result = pairwise_exchange(i, j, cap_i=None, cap_j=10)
        assert j.has + result.deltas[1] <= 10

    def test_cap_overflow_returns_to_sender(self):
        i = TileCoins(60, 8)
        j = TileCoins(0, 8)
        result = pairwise_exchange(i, j, cap_i=100, cap_j=10)
        assert i.has + result.deltas[0] == 50
        assert j.has + result.deltas[1] == 10

    def test_doubly_capped_pair_aborts(self):
        i = TileCoins(60, 8)
        j = TileCoins(60, 8)
        result = pairwise_exchange(i, j, cap_i=10, cap_j=10)
        assert result.deltas == (0, 0)

    @given(active_tile, active_tile)
    @settings(max_examples=300, deadline=None)
    def test_conservation_property(self, i, j):
        result = pairwise_exchange(i, j)
        assert sum(result.deltas) == 0

    @given(active_tile, active_tile)
    @settings(max_examples=300, deadline=None)
    def test_ratio_equalization_property(self, i, j):
        result = pairwise_exchange(i, j)
        hi = i.has + result.deltas[0]
        hj = j.has + result.deltas[1]
        # After the exchange, per-tile error against the pair-fair ratio
        # is at most one coin (quantization).
        alpha = (i.has + j.has) / (i.max + j.max)
        assert abs(hi - alpha * i.max) <= 1.0 + 1e-9
        assert abs(hj - alpha * j.max) <= 1.0 + 1e-9

    @given(active_tile, active_tile)
    @settings(max_examples=300, deadline=None)
    def test_idempotence_property(self, i, j):
        """A second exchange right after the first moves nothing."""
        first = pairwise_exchange(i, j)
        i2 = TileCoins(i.has + first.deltas[0], i.max)
        j2 = TileCoins(j.has + first.deltas[1], j.max)
        assert pairwise_exchange(i2, j2).deltas == (0, 0)

    @given(active_tile, active_tile, st.integers(0, 63), st.integers(0, 63))
    @settings(max_examples=200, deadline=None)
    def test_caps_never_violated_property(self, i, j, cap_i, cap_j):
        result = pairwise_exchange(i, j, cap_i=cap_i, cap_j=cap_j)
        hi = i.has + result.deltas[0]
        hj = j.has + result.deltas[1]
        # A capped tile may already exceed its cap beforehand (transient);
        # the exchange must never *push* it further above.
        assert hi <= max(cap_i, i.has)
        assert hj <= max(cap_j, j.has)


class TestGroupExchange:
    def test_fig2_four_way_equalizes_group(self):
        has = [3, 9, 5, 7, 0]
        deltas = group_deltas(has, [8] * 5)
        total = sum(has)
        finals = [h + d for h, d in zip(has, deltas)]
        assert sum(finals) == total
        for h in finals:
            assert abs(h - total / 5) <= 1.5

    def test_empty_group_rejected(self):
        with pytest.raises(CoinStateError):
            group_deltas([], [])

    def test_caps_length_mismatch_rejected(self):
        with pytest.raises(CoinStateError):
            group_deltas([1], [1], caps=[None, None])

    def test_all_inactive_group_no_exchange(self):
        assert group_deltas([5, 3], [0, 0]) == (0, 0)

    def test_inactive_members_drain_to_active(self):
        has = [0, 10, 6]
        deltas = group_deltas(has, [8, 0, 0])
        assert [h + d for h, d in zip(has, deltas)] == [16, 0, 0]

    @given(st.lists(active_tile, min_size=2, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_group_conservation_property(self, states):
        deltas = group_deltas([s.has for s in states], [s.max for s in states])
        assert sum(deltas) == 0

    @given(st.lists(active_tile, min_size=2, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_group_fairness_property(self, states):
        deltas = group_deltas([s.has for s in states], [s.max for s in states])
        total = sum(s.has for s in states)
        sum_max = sum(s.max for s in states)
        alpha = total / sum_max
        finals = [s.has + d for s, d in zip(states, deltas)]
        # Neighbors land within one coin of fair; the center additionally
        # absorbs the group rounding remainder (at most one coin per
        # neighbor).
        for h, s in zip(finals[1:], states[1:]):
            assert abs(h - alpha * s.max) <= 1.0 + 1e-9
        assert abs(finals[0] - alpha * states[0].max) <= len(states) + 1e-9

    @given(st.lists(active_tile, min_size=2, max_size=5), st.integers(0, 63))
    @settings(max_examples=150, deadline=None)
    def test_group_caps_property(self, states, cap):
        caps = [cap] * len(states)
        deltas = group_deltas(
            [s.has for s in states], [s.max for s in states], caps
        )
        finals = [s.has + d for s, d in zip(states, deltas)]
        for h, s in zip(finals, states):
            assert h <= max(cap, s.has)
