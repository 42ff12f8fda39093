"""Tests for the individual DVFS blocks: LDO, RO, TDC, PID, LUT."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dvfs.ldo import DigitalLdo, LdoError
from repro.dvfs.lut import CoinLut
from repro.dvfs.oscillator import RingOscillator
from repro.dvfs.pid import PidController
from repro.dvfs.tdc import CounterTdc
from repro.power.characterization import get_curve


class TestDigitalLdo:
    def test_code_voltage_mapping_endpoints(self):
        ldo = DigitalLdo(v_out_min=0.5, v_out_max=0.98, n_codes=64)
        assert ldo.v_for_code(0) == pytest.approx(0.5)
        assert ldo.v_for_code(63) == pytest.approx(0.98)

    def test_code_out_of_range_rejected(self):
        ldo = DigitalLdo(n_codes=64)
        with pytest.raises(LdoError):
            ldo.v_for_code(64)

    def test_exponential_settle_toward_target(self):
        ldo = DigitalLdo(tau_cycles=80.0)
        ldo.set_code(63, now=0)
        v1 = ldo.v_out(40)
        v2 = ldo.v_out(400)
        assert v1 < v2 <= ldo.v_for_code(63) + 1e-9

    def test_settled_after_settle_cycles(self):
        ldo = DigitalLdo()
        ldo.set_code(63, now=0)
        t = ldo.settle_cycles(tolerance_v=0.005)
        assert abs(ldo.v_out(t) - ldo.v_for_code(63)) <= 0.005 + 1e-9

    def test_retarget_mid_settle_starts_from_current_voltage(self):
        ldo = DigitalLdo()
        ldo.set_code(63, now=0)
        v_mid = ldo.v_out(40)
        ldo.set_code(0, now=40)
        assert ldo.v_out(40) == pytest.approx(v_mid)

    def test_time_backwards_rejected(self):
        ldo = DigitalLdo()
        ldo.set_code(10, now=100)
        with pytest.raises(LdoError):
            ldo.v_out(50)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(LdoError):
            DigitalLdo(v_out_min=0.9, v_out_max=0.8)
        with pytest.raises(LdoError):
            DigitalLdo(n_codes=1)


class TestRingOscillator:
    def test_frequency_tracks_voltage(self):
        osc = RingOscillator(get_curve("FFT"))
        assert osc.frequency_hz(0.9) > osc.frequency_hz(0.6)

    def test_replica_runs_below_critical_path(self):
        osc = RingOscillator(get_curve("FFT"), tracking_margin=0.97)
        curve = get_curve("FFT")
        for v in (0.5, 0.7, 1.0):
            assert osc.frequency_hz(v) <= curve.f_max_at(v)

    def test_tune_code_trims_frequency(self):
        osc = RingOscillator(get_curve("FFT"))
        osc.set_tune_code(0)
        lo = osc.frequency_hz(0.8)
        osc.set_tune_code(osc.tune_steps - 1)
        hi = osc.frequency_hz(0.8)
        assert hi > lo

    def test_tune_code_clamped(self):
        osc = RingOscillator(get_curve("FFT"))
        osc.set_tune_code(999)
        assert osc.tune_code == osc.tune_steps - 1

    def test_v_for_frequency_inverts(self):
        osc = RingOscillator(get_curve("FFT"))
        f = osc.frequency_hz(0.75)
        assert osc.v_for_frequency(f) == pytest.approx(0.75, abs=1e-6)

    def test_v_for_frequency_clamps_at_rails(self):
        osc = RingOscillator(get_curve("FFT"))
        assert osc.v_for_frequency(0.0) == osc.curve.spec.v_min
        assert osc.v_for_frequency(1e12) == osc.curve.spec.v_max

    def test_invalid_margin_rejected(self):
        with pytest.raises(ValueError):
            RingOscillator(get_curve("FFT"), tracking_margin=0.4)


class TestCounterTdc:
    def test_resolution(self):
        tdc = CounterTdc(f_ref_hz=800e6, window_ref_cycles=64)
        assert tdc.resolution_hz == pytest.approx(12.5e6)

    def test_count_quantizes_down(self):
        tdc = CounterTdc(f_ref_hz=800e6, window_ref_cycles=64)
        assert tdc.count(100e6) == 8
        assert tdc.count(99e6) == 7

    def test_roundtrip_within_one_lsb(self):
        tdc = CounterTdc()
        f = 443.7e6
        assert abs(tdc.count(f) * tdc.resolution_hz - f) < tdc.resolution_hz

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            CounterTdc(window_ref_cycles=0)
        tdc = CounterTdc()
        with pytest.raises(ValueError):
            tdc.count(-1.0)

    @given(st.floats(0, 1e9))
    @settings(max_examples=100, deadline=None)
    def test_quantization_error_bounded_property(self, f):
        tdc = CounterTdc()
        assert 0 <= f - tdc.count(f) * tdc.resolution_hz < tdc.resolution_hz


class TestPidController:
    def test_proportional_response(self):
        pid = PidController(kp=1.0, ki=0.0, kd=0.0)
        assert pid.step(5.0) == pytest.approx(5.0)

    def test_integral_accumulates(self):
        pid = PidController(kp=0.0, ki=1.0, kd=0.0)
        pid.step(2.0)
        assert pid.step(2.0) == pytest.approx(4.0)

    def test_derivative_sees_error_change(self):
        pid = PidController(kp=0.0, ki=0.0, kd=1.0)
        pid.step(1.0)
        assert pid.step(3.0) == pytest.approx(2.0)

    def test_output_clamped(self):
        pid = PidController(kp=10.0, out_min=0.0, out_max=5.0)
        assert pid.step(100.0) == 5.0

    def test_anti_windup_releases_quickly(self):
        pid = PidController(kp=0.0, ki=1.0, out_min=-5.0, out_max=5.0)
        for _ in range(50):
            pid.step(10.0)  # saturating high
        # One negative error should immediately pull the output down.
        out = pid.step(-10.0)
        assert out < 5.0

    def test_reset_clears_history(self):
        pid = PidController(kp=0.0, ki=1.0)
        pid.step(3.0)
        pid.reset()
        assert pid.step(1.0) == pytest.approx(1.0)

    def test_bias_feedforward(self):
        pid = PidController(kp=1.0, ki=0.0, kd=0.0)
        assert pid.step(1.0, bias=10.0) == pytest.approx(11.0)

    def test_invalid_limits_rejected(self):
        with pytest.raises(ValueError):
            PidController(out_min=5.0, out_max=1.0)


class TestCoinLut:
    def test_monotonic(self):
        lut = CoinLut(get_curve("FFT"), coin_value_mw=1.0)
        assert list(lut.entries()) == sorted(lut.entries())

    def test_entry_power_budget_respected(self):
        curve = get_curve("FFT")
        lut = CoinLut(curve, coin_value_mw=1.0)
        for coins in (5, 20, 40, 63):
            f = lut.frequency_for(coins)
            if f > 0:
                assert curve.power_at_f(f) <= coins * 1.0 + 1e-6

    def test_negative_coins_map_to_zero(self):
        lut = CoinLut(get_curve("FFT"), coin_value_mw=1.0)
        assert lut.frequency_for(-5) == lut.frequency_for(0)

    def test_overflow_coins_clamp_to_top_entry(self):
        lut = CoinLut(get_curve("FFT"), coin_value_mw=1.0)
        assert lut.frequency_for(200) == lut.frequency_for(63)

    def test_full_entitlement_reaches_f_max(self):
        curve = get_curve("FFT")
        lut = CoinLut(curve, coin_value_mw=curve.p_max_mw / 40)
        assert lut.frequency_for(63) == pytest.approx(curve.spec.f_max_hz)

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError):
            CoinLut(get_curve("FFT"), coin_value_mw=0.0)
        with pytest.raises(ValueError):
            CoinLut(get_curve("FFT"), coin_value_mw=1.0, n_entries=1)
