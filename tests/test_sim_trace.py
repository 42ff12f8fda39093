"""Tests for step-function trace recording."""

import numpy as np
import pytest

from repro.sim.trace import StateTrace, TraceRecorder


class TestStateTrace:
    def test_value_holds_until_next_sample(self):
        t = StateTrace("p")
        t.record(10, 5.0)
        t.record(20, 7.0)
        assert t.value_at(10) == 5.0
        assert t.value_at(15) == 5.0
        assert t.value_at(20) == 7.0
        assert t.value_at(1000) == 7.0

    def test_value_before_first_sample_is_zero(self):
        t = StateTrace("p")
        t.record(10, 5.0)
        assert t.value_at(0) == 0.0

    def test_same_time_record_overwrites(self):
        t = StateTrace("p")
        t.record(10, 5.0)
        t.record(10, 9.0)
        assert t.value_at(10) == 9.0
        assert len(t) == 1

    def test_redundant_samples_skipped(self):
        t = StateTrace("p")
        t.record(10, 5.0)
        t.record(20, 5.0)
        assert len(t) == 1

    def test_time_going_backwards_rejected(self):
        t = StateTrace("p")
        t.record(10, 5.0)
        with pytest.raises(ValueError):
            t.record(5, 1.0)

    def test_integral_over_step_function(self):
        t = StateTrace("p")
        t.record(0, 2.0)
        t.record(10, 4.0)
        # [0,10): 2*10 = 20 ; [10,20): 4*10 = 40
        assert t.integral(0, 20) == pytest.approx(60.0)

    def test_integral_partial_segment(self):
        t = StateTrace("p")
        t.record(0, 2.0)
        t.record(10, 4.0)
        assert t.integral(5, 15) == pytest.approx(2.0 * 5 + 4.0 * 5)

    def test_integral_before_first_sample_counts_zero(self):
        t = StateTrace("p")
        t.record(10, 3.0)
        assert t.integral(0, 20) == pytest.approx(30.0)

    def test_integral_empty_interval(self):
        t = StateTrace("p")
        t.record(0, 2.0)
        assert t.integral(10, 10) == 0.0

    def test_integral_window_is_half_open(self):
        # A sample recorded exactly at t1 contributes nothing: it only
        # takes effect from t1, which is outside [t0, t1).
        t = StateTrace("p")
        t.record(0, 2.0)
        t.record(10, 100.0)
        assert t.integral(0, 10) == pytest.approx(20.0)
        # ...while the value prevailing at t0 is charged from t0 on.
        assert t.integral(10, 12) == pytest.approx(200.0)

    def test_integral_adjacent_windows_tile_exactly(self):
        t = StateTrace("p")
        t.record(0, 2.0)
        t.record(7, 4.0)
        t.record(13, 1.0)
        assert t.integral(0, 7) + t.integral(7, 20) == pytest.approx(
            t.integral(0, 20)
        )
        assert t.integral(3, 13) + t.integral(13, 16) == pytest.approx(
            t.integral(3, 16)
        )

    def test_mean(self):
        t = StateTrace("p")
        t.record(0, 2.0)
        t.record(10, 4.0)
        assert t.mean(0, 20) == pytest.approx(3.0)

    def test_max_value(self):
        t = StateTrace("p")
        assert t.max_value() == 0.0
        t.record(0, 2.0)
        t.record(5, 9.0)
        t.record(10, 1.0)
        assert t.max_value() == 9.0

    def test_resample(self):
        t = StateTrace("p")
        t.record(0, 1.0)
        t.record(10, 2.0)
        out = t.resample(np.array([0, 5, 10, 15]))
        assert list(out) == [1.0, 1.0, 2.0, 2.0]

    def test_iteration_yields_samples(self):
        t = StateTrace("p")
        t.record(0, 1.0)
        t.record(10, 2.0)
        assert list(t) == [(0, 1.0), (10, 2.0)]


class TestTraceRecorder:
    def test_record_and_lookup(self):
        r = TraceRecorder()
        r.record("power/1", 0, 5.0)
        assert "power/1" in r
        assert r["power/1"].value_at(0) == 5.0

    def test_get_missing_returns_none(self):
        r = TraceRecorder()
        assert r.get("nope") is None

    def test_names_sorted(self):
        r = TraceRecorder()
        r.record("b", 0, 1.0)
        r.record("a", 0, 1.0)
        assert r.names() == ["a", "b"]
