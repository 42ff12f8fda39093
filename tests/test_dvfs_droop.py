"""Tests for the voltage-droop response model."""

import pytest

from repro.dvfs.droop import (
    ConventionalDroopResult,
    DroopEvent,
    DroopSimulator,
)
from repro.power.characterization import get_curve


@pytest.fixture
def sim():
    return DroopSimulator(get_curve("FFT"))


class TestDroopEvent:
    def test_valid(self):
        e = DroopEvent(100, 0.05, 200)
        assert e.depth_v == 0.05

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            DroopEvent(0, -0.1, 10)
        with pytest.raises(ValueError):
            DroopEvent(0, 0.1, 0)
        with pytest.raises(ValueError):
            DroopEvent(-1, 0.1, 10)


class TestUvfrResponse:
    def test_never_violates_timing(self, sim):
        events = [DroopEvent(0, 0.30, 500)]  # a brutal droop
        result = sim.uvfr_response(700e6, events)
        assert result.survives
        assert result.timing_violations == 0

    def test_clock_slows_during_droop(self, sim):
        events = [DroopEvent(0, 0.10, 200)]
        result = sim.uvfr_response(700e6, events)
        assert result.min_frequency_hz < 700e6
        assert result.lost_cycles > 0

    def test_deeper_droop_costs_more_cycles(self, sim):
        shallow = sim.uvfr_response(700e6, [DroopEvent(0, 0.05, 200)])
        deep = sim.uvfr_response(700e6, [DroopEvent(0, 0.15, 200)])
        assert deep.lost_cycles > shallow.lost_cycles

    def test_no_events_no_cost(self, sim):
        result = sim.uvfr_response(700e6, [])
        assert result.lost_cycles == 0.0

    def test_multiple_events_accumulate(self, sim):
        one = sim.uvfr_response(700e6, [DroopEvent(0, 0.1, 200)])
        two = sim.uvfr_response(
            700e6, [DroopEvent(0, 0.1, 200), DroopEvent(500, 0.1, 200)]
        )
        assert two.lost_cycles == pytest.approx(2 * one.lost_cycles)


class TestConventionalResponse:
    def test_droop_within_guardband_survives(self, sim):
        events = [DroopEvent(0, 0.04, 200)]
        result = sim.conventional_response(600e6, events, guardband_v=0.05)
        assert result.survives
        assert result.worst_margin_v >= 0

    def test_droop_beyond_guardband_violates(self, sim):
        events = [DroopEvent(0, 0.08, 200)]
        result = sim.conventional_response(600e6, events, guardband_v=0.05)
        assert not result.survives
        assert result.worst_margin_v < 0

    def test_guardband_costs_power(self, sim):
        result = sim.conventional_response(500e6, [], guardband_v=0.08)
        assert result.guardband_power_overhead > 0.05

    def test_zero_guardband_zero_overhead(self, sim):
        result = sim.conventional_response(500e6, [], guardband_v=0.0)
        assert result.guardband_power_overhead == pytest.approx(0.0, abs=1e-9)

    def test_guardband_clamped_at_vmax_may_still_fail(self, sim):
        # Near f_max there is no headroom for a guard-band: even a
        # requested margin cannot be realized, so a droop violates.
        curve = get_curve("FFT")
        events = [DroopEvent(0, 0.06, 100)]
        result = sim.conventional_response(
            curve.spec.f_max_hz, events, guardband_v=0.10
        )
        assert isinstance(result, ConventionalDroopResult)
        assert not result.survives

    def test_negative_guardband_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.conventional_response(500e6, [], guardband_v=-0.01)


class TestTradeoff:
    def test_tradeoff_rows_monotone(self, sim):
        rows = sim.guardband_tradeoff(600e6, [0.02, 0.05, 0.10])
        depths = [r[0] for r in rows]
        uvfr_costs = [r[1] for r in rows]
        conv_costs = [r[2] for r in rows]
        assert depths == sorted(depths)
        assert uvfr_costs == sorted(uvfr_costs)
        assert conv_costs == sorted(conv_costs)

    def test_uvfr_transient_vs_conventional_permanent(self, sim):
        """The headline: for a 10% V droop, UVFR loses a fraction of
        cycles *during the droop only*, while the conventional design
        pays a double-digit power overhead *forever*."""
        rows = sim.guardband_tradeoff(600e6, [0.10])
        _, uvfr_fraction, conv_overhead = rows[0]
        assert 0.0 < uvfr_fraction < 1.0
        assert conv_overhead > 0.10
