"""Tests for the sustained-load experiment driver (reduced scale)."""

import pytest

from repro.experiments.sustained_load import (
    SustainedLoadResult,
    format_rows,
    run_sustained,
)


class TestRunSustained:
    def test_slow_churn_keeps_up(self):
        r = run_sustained(3, t_w_us=400.0, seed=1, horizon_us=1_000.0)
        assert isinstance(r, SustainedLoadResult)
        assert r.n_tiles == 9
        assert r.converged_fraction > 0.5
        assert r.keeps_up

    def test_frantic_churn_falls_behind(self):
        r = run_sustained(4, t_w_us=3.0, seed=1, horizon_us=150.0)
        assert r.converged_fraction < 0.5
        assert not r.keeps_up

    def test_change_counting(self):
        r = run_sustained(4, t_w_us=100.0, seed=2, horizon_us=500.0)
        assert r.n_changes > 0
        assert r.mean_interval_us > 0

    def test_deterministic_by_seed(self):
        a = run_sustained(4, t_w_us=100.0, seed=3, horizon_us=400.0)
        b = run_sustained(4, t_w_us=100.0, seed=3, horizon_us=400.0)
        assert a == b

    def test_default_horizon_scales_with_tw(self):
        r = run_sustained(3, t_w_us=100.0, seed=0)
        assert r.horizon_us >= 500.0


class TestSweep:
    def test_fraction_monotone_in_tw(self):
        results = [run_sustained(3, t_w, 4) for t_w in (10.0, 300.0)]
        fractions = [r.converged_fraction for r in results]
        assert fractions[0] <= fractions[-1]

    def test_format_rows(self):
        rows = format_rows([run_sustained(3, 50.0, 0)])
        assert len(rows) == 1
        assert "N=" in rows[0]
