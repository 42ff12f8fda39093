"""Tests for the price-theory model."""

import pytest

from repro.baselines.pricetheory import PriceTheoryModel


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
