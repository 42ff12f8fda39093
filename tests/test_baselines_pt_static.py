"""Tests for the price-theory model."""

import pytest

from repro.baselines.pricetheory import (
    PriceTheoryModel,
    market_allocation,
    pm_overhead_fraction,
)


class TestPriceTheoryModel:
    def test_matches_published_midpoint(self):
        model = PriceTheoryModel(hardware_scaled=False)
        mid = (6.62e-3 + 11.4e-3) / 2
        assert model.response_time_s(256) == pytest.approx(mid, rel=1e-6)

    def test_hardware_scaling_reduces_response(self):
        sw = PriceTheoryModel(hardware_scaled=False)
        hw = PriceTheoryModel(hardware_scaled=True)
        assert hw.response_time_s(256) == pytest.approx(
            sw.response_time_s(256) / 10**2.5
        )

    def test_sublinear_scaling(self):
        model = PriceTheoryModel()
        ratio = model.response_time_s(512) / model.response_time_s(256)
        assert ratio < 2.0  # sub-linear in N

    def test_n_max_consistency(self):
        model = PriceTheoryModel()
        t_w = 10e-3
        n = model.n_max(t_w)
        assert model.response_time_s(n) == pytest.approx(t_w / n, rel=1e-6)

    def test_invalid_inputs_rejected(self):
        model = PriceTheoryModel()
        with pytest.raises(ValueError):
            model.response_time_s(0)
        with pytest.raises(ValueError):
            model.n_max(0.0)

    def test_overhead_fraction(self):
        model = PriceTheoryModel()
        frac = pm_overhead_fraction(model, 100, 10e-3)
        assert frac > 0


class TestMarketAllocation:
    def test_underdemanded_budget_satisfies_everyone(self):
        alloc, rounds = market_allocation({1: 10.0, 2: 20.0}, 100.0)
        assert alloc == {1: pytest.approx(10.0), 2: pytest.approx(20.0)}
        assert rounds <= 1

    def test_overdemanded_budget_clears_market(self):
        demands = {1: 100.0, 2: 100.0, 3: 100.0}
        alloc, rounds = market_allocation(demands, 120.0)
        assert sum(alloc.values()) <= 120.0 * (1 + 1e-6)
        assert rounds > 1

    def test_equal_demands_get_equal_shares(self):
        alloc, _ = market_allocation({1: 100.0, 2: 100.0}, 100.0)
        assert alloc[1] == pytest.approx(alloc[2])

    def test_idle_agents_get_nothing(self):
        alloc, _ = market_allocation({1: 100.0, 2: 0.0}, 50.0)
        assert alloc[2] == 0.0

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            market_allocation({1: 1.0}, 0.0)
