"""Tests for the closed UVFR loop and the actuator wrappers."""

import pytest

from repro.dvfs.actuator import ConventionalDualLoop, TileActuator, build_uvfr_loop
from repro.power.characterization import get_curve
from repro.sim.kernel import Simulator


class TestUvfrLoop:
    def test_transition_reaches_target_within_tdc_lsb(self):
        loop = build_uvfr_loop(get_curve("FFT"))
        result = loop.transition(600e6)
        assert result.settled
        assert abs(result.final_frequency_hz - 600e6) < 2 * loop.tdc.resolution_hz

    def test_transition_latency_is_sub_two_microseconds(self):
        # Fig. 19 (bottom right): a UVFR clock step settles in ~1 us.
        loop = build_uvfr_loop(get_curve("FFT"))
        result = loop.transition(650e6)
        assert result.settled
        assert result.cycles < 1600  # < 2 us at 800 MHz

    def test_downward_transition(self):
        loop = build_uvfr_loop(get_curve("FFT"))
        loop.transition(700e6)
        result = loop.transition(400e6)
        assert result.settled
        assert result.final_frequency_hz < 450e6

    def test_voltage_tracks_frequency_target(self):
        loop = build_uvfr_loop(get_curve("FFT"))
        low = loop.transition(350e6).trajectory[-1][1]
        high = loop.transition(750e6).trajectory[-1][1]
        assert high > low

    def test_trajectory_is_recorded(self):
        loop = build_uvfr_loop(get_curve("FFT"))
        result = loop.transition(500e6)
        assert len(result.trajectory) == result.steps
        times = [s[0] for s in result.trajectory]
        assert times == sorted(times)

    def test_target_clamped_to_oscillator_range(self):
        loop = build_uvfr_loop(get_curve("FFT"))
        loop.set_target(10e9)
        assert loop.f_target_hz <= loop.oscillator.f_max_hz

    def test_negative_target_rejected(self):
        loop = build_uvfr_loop(get_curve("FFT"))
        with pytest.raises(ValueError):
            loop.set_target(-1.0)


class TestTileActuator:
    def test_frequency_lands_after_settle(self):
        sim = Simulator()
        act = TileActuator(sim, get_curve("FFT"), settle_cycles=100)
        act.set_frequency_target(500e6)
        assert act.f_current_hz == 0.0
        sim.run(until=99)
        assert act.f_current_hz == 0.0
        sim.run(until=101)
        assert act.f_current_hz == pytest.approx(500e6)

    def test_retarget_supersedes_pending_transition(self):
        sim = Simulator()
        act = TileActuator(sim, get_curve("FFT"), settle_cycles=100)
        act.set_frequency_target(500e6)
        sim.run(until=50)
        act.set_frequency_target(300e6)
        sim.run(until=200)
        assert act.f_current_hz == pytest.approx(300e6)

    def test_same_target_does_not_restart_settle(self):
        """Repeated identical targets must not postpone landing (the
        TokenSmart visit-storm bug)."""
        sim = Simulator()
        act = TileActuator(sim, get_curve("FFT"), settle_cycles=100)
        act.set_frequency_target(500e6)
        for t in (30, 60, 90):
            sim.run(until=t)
            act.set_frequency_target(500e6)
        sim.run(until=105)
        assert act.f_current_hz == pytest.approx(500e6)

    def test_change_callback_invoked(self):
        sim = Simulator()
        seen = []
        act = TileActuator(
            sim,
            get_curve("FFT"),
            settle_cycles=10,
            on_frequency_change=seen.append,
        )
        act.set_frequency_target(400e6)
        sim.run(until=20)
        assert seen == [pytest.approx(400e6)]

    def test_target_clamped_to_curve_max(self):
        sim = Simulator()
        act = TileActuator(sim, get_curve("FFT"), settle_cycles=1)
        act.set_frequency_target(5e9)
        sim.run(until=5)
        assert act.f_current_hz == pytest.approx(get_curve("FFT").spec.f_max_hz)

    def test_power_readout(self):
        sim = Simulator()
        act = TileActuator(sim, get_curve("FFT"), settle_cycles=1)
        act.set_frequency_target(get_curve("FFT").spec.f_max_hz)
        sim.run(until=5)
        assert act.power_mw(True) == pytest.approx(56.0, rel=1e-6)
        assert act.power_mw(False) == pytest.approx(
            get_curve("FFT").p_idle_mw
        )

    def test_default_settle_from_loop_physics(self):
        sim = Simulator()
        act = TileActuator(sim, get_curve("FFT"))
        # LDO settle plus a few TDC windows: hundreds of cycles, not
        # zero, not tens of thousands.
        assert 100 < act.settle_cycles < 3000


class TestConventionalDualLoop:
    def test_guardband_costs_power(self):
        conv = ConventionalDualLoop(get_curve("FFT"), guardband_v=0.05)
        overhead = conv.overhead_vs_uvfr(500e6)
        assert overhead > 0.03  # at least a few percent

    def test_no_guardband_no_overhead(self):
        conv = ConventionalDualLoop(get_curve("FFT"), guardband_v=0.0)
        assert conv.overhead_vs_uvfr(500e6) == pytest.approx(0.0, abs=1e-9)

    def test_voltage_clamped_at_vmax(self):
        curve = get_curve("FFT")
        conv = ConventionalDualLoop(curve, guardband_v=0.2)
        assert conv.voltage_for(curve.spec.f_max_hz) <= curve.spec.v_max

    def test_slower_than_uvfr_actuation(self):
        curve = get_curve("FFT")
        conv = ConventionalDualLoop(curve)
        sim = Simulator()
        uvfr_act = TileActuator(sim, curve)
        assert conv.settle_cycles() > uvfr_act.settle_cycles

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ConventionalDualLoop(get_curve("FFT"), guardband_v=-0.1)
