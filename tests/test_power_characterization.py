"""Tests for the P/V/F characterization models."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dvfs.lut import CoinLut
from repro.power.characterization import (
    ACCELERATOR_CATALOG,
    F_FOR_POWER_MEMO_BOUND,
    AcceleratorClass,
    CharacterizationError,
    PowerFrequencyCurve,
    get_curve,
)

ALL_NAMES = sorted(ACCELERATOR_CATALOG)


class TestCatalog:
    def test_six_accelerator_classes(self):
        assert set(ALL_NAMES) == {
            "FFT",
            "Viterbi",
            "NVDLA",
            "GEMM",
            "Conv2D",
            "Vision",
        }

    def test_3x3_soc_combined_power_matches_budget_fractions(self):
        # 3 FFT + 2 Viterbi + 1 NVDLA ~ 400 mW so that 120/60 mW budgets
        # are 30%/15% (Section VI-A).
        total = (
            3 * get_curve("FFT").p_max_mw
            + 2 * get_curve("Viterbi").p_max_mw
            + get_curve("NVDLA").p_max_mw
        )
        assert total == pytest.approx(400.0, rel=0.02)

    def test_4x4_soc_combined_power_matches_budget_fractions(self):
        # 5 GEMM + 4 Conv2D + 4 Vision ~ 1350 mW so 450/900 mW are
        # 33%/66% (Section VI-B).
        total = (
            5 * get_curve("GEMM").p_max_mw
            + 4 * get_curve("Conv2D").p_max_mw
            + 4 * get_curve("Vision").p_max_mw
        )
        assert total == pytest.approx(1350.0, rel=0.02)

    def test_unknown_class_rejected(self):
        with pytest.raises(CharacterizationError):
            get_curve("TPU")

    def test_curves_cached(self):
        assert get_curve("FFT") is get_curve("FFT")


class TestVoltageFrequency:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_f_max_is_monotone_in_voltage(self, name):
        c = get_curve(name)
        spec = c.spec
        vs = [spec.v_min + k * (spec.v_max - spec.v_min) / 10 for k in range(11)]
        fs = [c.f_max_at(v) for v in vs]
        assert all(a < b for a, b in zip(fs, fs[1:]))

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_calibrated_top_point(self, name):
        c = get_curve(name)
        assert c.f_max_at(c.spec.v_max) == pytest.approx(
            c.spec.f_max_hz, rel=1e-9
        )
        assert c.power_mw(c.spec.v_max, c.spec.f_max_hz) == pytest.approx(
            c.spec.p_max_mw, rel=1e-9
        )

    def test_out_of_range_voltage_rejected(self):
        c = get_curve("FFT")
        with pytest.raises(CharacterizationError):
            c.f_max_at(0.3)
        with pytest.raises(CharacterizationError):
            c.f_max_at(1.2)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_v_for_f_inverts_f_max(self, name):
        c = get_curve(name)
        for frac in (0.5, 0.8, 1.0):
            f = c.spec.f_max_hz * frac
            v = c.v_for_f(f)
            assert c.f_max_at(v) >= f * (1 - 1e-6)

    def test_low_frequency_stays_at_v_min(self):
        c = get_curve("FFT")
        assert c.v_for_f(1e6) == c.spec.v_min

    def test_excessive_frequency_rejected(self):
        c = get_curve("FFT")
        with pytest.raises(CharacterizationError):
            c.v_for_f(2 * c.spec.f_max_hz)


class TestPower:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_power_at_f_monotone(self, name):
        c = get_curve(name)
        fs = [c.spec.f_max_hz * k / 10 for k in range(11)]
        ps = [c.power_at_f(f) for f in fs]
        assert all(a <= b + 1e-9 for a, b in zip(ps, ps[1:]))

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_f_for_power_inverts_power_at_f(self, name):
        c = get_curve(name)
        for frac in (0.3, 0.6, 0.9):
            p = c.p_max_mw * frac
            f = c.f_for_power(p)
            assert c.power_at_f(f) <= p * (1 + 1e-6)

    def test_f_for_power_saturates_at_f_max(self):
        c = get_curve("FFT")
        assert c.f_for_power(10 * c.p_max_mw) == c.spec.f_max_hz

    def test_f_for_power_zero_below_leakage_floor(self):
        c = get_curve("NVDLA")
        assert c.f_for_power(0.1) == 0.0

    def test_unsustainable_point_rejected(self):
        c = get_curve("FFT")
        with pytest.raises(CharacterizationError):
            c.power_mw(c.spec.v_min, c.spec.f_max_hz)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_idle_power_below_min_voltage_point(self, name):
        c = get_curve(name)
        p_min_point = c.power_mw(c.spec.v_min, c.f_max_at(c.spec.v_min))
        assert c.p_idle_mw == pytest.approx(p_min_point / 7.5)

    def test_low_voltage_points_are_more_efficient(self):
        """The physics behind RP's win: MHz-per-mW improves at low V."""
        c = get_curve("FFT")
        lo = c.f_max_at(c.spec.v_min) / c.power_mw(
            c.spec.v_min, c.f_max_at(c.spec.v_min)
        )
        hi = c.spec.f_max_hz / c.spec.p_max_mw
        assert lo > 1.5 * hi

    def test_sweep_shape(self):
        samples = get_curve("GEMM").sweep(5)
        assert len(samples) == 5
        assert samples[0][0] == pytest.approx(0.60)
        assert samples[-1][0] == pytest.approx(0.90)


class TestValidation:
    def test_bad_voltage_range_rejected(self):
        with pytest.raises(CharacterizationError):
            AcceleratorClass(
                name="x", v_min=0.9, v_max=0.8, f_max_hz=1e9, p_max_mw=10
            )

    def test_threshold_above_vmin_rejected(self):
        with pytest.raises(CharacterizationError):
            AcceleratorClass(
                name="x",
                v_min=0.4,
                v_max=1.0,
                f_max_hz=1e9,
                p_max_mw=10,
                v_threshold=0.5,
            )

    def test_custom_class_is_usable(self):
        spec = AcceleratorClass(
            name="custom", v_min=0.55, v_max=0.95, f_max_hz=1e9, p_max_mw=42
        )
        curve = PowerFrequencyCurve(spec)
        assert curve.power_at_f(5e8) < 42

    @given(st.floats(0.05, 0.95))
    @settings(max_examples=50, deadline=None)
    def test_inverse_consistency_property(self, frac):
        c = get_curve("Conv2D")
        p = c.p_max_mw * frac
        f = c.f_for_power(p)
        if f > 0:
            assert c.power_at_f(f) <= p + 1e-6


class TestFrequencyForPowerMemo:
    """``f_for_power`` is memoized per curve: exact, bounded, NaN-free."""

    @pytest.mark.parametrize("name", ALL_NAMES)
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_warm_curve_equals_fresh_solve(self, name, data):
        warm = get_curve(name)
        p_max = warm.p_max_mw
        p = data.draw(
            st.one_of(
                st.sampled_from([0.0, p_max]),
                st.floats(-1.0, 2 * p_max),
            )
        )
        warm.f_for_power(p)
        fresh = PowerFrequencyCurve(warm.spec)
        assert warm.f_for_power(p) == fresh._solve_f_for_power(p)
        assert warm.f_for_power(p) == fresh.f_for_power(p)

    def test_memo_never_exceeds_its_bound(self):
        curve = PowerFrequencyCurve(ACCELERATOR_CATALOG["FFT"])
        f_max = curve.spec.f_max_hz
        # Keys at or above p_max skip the bisection, so this stays cheap.
        for k in range(F_FOR_POWER_MEMO_BOUND + 100):
            assert curve.f_for_power(curve.p_max_mw + k) == f_max
            assert len(curve._f_for_power_memo) <= F_FOR_POWER_MEMO_BOUND
        p = 0.5 * curve.p_max_mw
        assert curve.f_for_power(p) == PowerFrequencyCurve(
            curve.spec
        ).f_for_power(p)

    def test_nan_power_raises_and_is_not_memoized(self):
        curve = PowerFrequencyCurve(ACCELERATOR_CATALOG["FFT"])
        for _ in range(2):
            with pytest.raises(CharacterizationError):
                curve.f_for_power(math.nan)
        assert curve._f_for_power_memo == {}

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_coin_lut_rebuilt_from_one_curve_is_identical(self, name):
        curve = PowerFrequencyCurve(ACCELERATOR_CATALOG[name])
        coin_value = curve.p_max_mw / 40
        cold = CoinLut(curve, coin_value)
        warm = CoinLut(curve, coin_value)
        coins = range(cold.n_entries)
        table = [cold.frequency_for(c) for c in coins]
        assert [warm.frequency_for(c) for c in coins] == table
        assert table[-1] == curve.spec.f_max_hz
