"""Tests for the area-overhead model."""

import pytest

from repro.power.area import (
    BLITZCOIN_BLOCK_AREAS_MM2,
    PRIOR_ART_OVERHEADS,
    AreaError,
    TileAreaBudget,
    comparison_rows,
)


class TestTileAreaBudget:
    def test_paper_headline_under_one_percent(self):
        budget = TileAreaBudget(1.0)
        assert budget.total_fraction < 0.01

    def test_block_breakdown_matches_paper(self):
        fractions = TileAreaBudget(1.0).block_fractions
        assert fractions["tdc_and_coin_logic"] == pytest.approx(0.0049)
        assert fractions["ring_oscillator"] == pytest.approx(0.0004)
        assert 0.0001 <= fractions["ldo"] <= 0.0003

    def test_overhead_scales_inversely_with_tile_size(self):
        small = TileAreaBudget(0.25)
        large = TileAreaBudget(4.0)
        assert small.total_fraction == pytest.approx(
            16 * large.total_fraction
        )

    def test_advantage_over_prior_art(self):
        budget = TileAreaBudget(1.0)
        # Switched-capacitor designs are 30-70x larger.
        assert budget.advantage_over("switched-cap UVFR [51]") > 30
        # Even the closest digital LDO is >2x larger.
        assert budget.advantage_over("digital LDO [54]") > 2

    def test_invalid_inputs_rejected(self):
        with pytest.raises(AreaError):
            TileAreaBudget(0.0)
        with pytest.raises(AreaError):
            TileAreaBudget(1.0).advantage_over("fictional design")


class TestComparison:
    def test_blitzcoin_is_smallest(self):
        rows = comparison_rows()
        ours = dict(rows)["BlitzCoin (this work)"]
        assert all(
            ours < frac
            for name, frac in rows
            if name != "BlitzCoin (this work)"
        )

    def test_all_prior_designs_listed(self):
        rows = comparison_rows()
        names = {name for name, _ in rows}
        assert set(PRIOR_ART_OVERHEADS) <= names

    def test_block_areas_positive(self):
        assert all(a > 0 for a in BLITZCOIN_BLOCK_AREAS_MM2.values())
