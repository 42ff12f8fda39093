"""Tests for error metrics and incremental tracking."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import ErrorTracker, global_error, worst_tile_error


class TestGlobalError:
    def test_perfect_allocation_has_zero_error(self):
        assert global_error([6, 6, 6], [8, 8, 8]) == 0.0

    def test_proportional_allocation_has_zero_error(self):
        # alpha = 12/24 = 0.5 ; targets 4, 8 exactly met.
        assert global_error([4, 8], [8, 16]) == 0.0

    def test_known_imbalance(self):
        # alpha = 1.0 over equal tiles; errors |2-1| = |0-1| = 1.
        assert global_error([2, 0], [1, 1]) == pytest.approx(1.0)

    def test_zero_max_counts_held_coins_as_error(self):
        assert global_error([4, 0], [0, 0]) == pytest.approx(2.0)

    def test_empty_vectors(self):
        assert global_error([], []) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            global_error([1], [1, 2])


class TestWorstTileError:
    def test_worst_error_is_max(self):
        # alpha = 6/12 = 0.5 -> targets 2, 4 ; errors 2 and 2.
        assert worst_tile_error([4, 2], [4, 8]) == pytest.approx(2.0)

    def test_zero_for_fair_state(self):
        assert worst_tile_error([2, 4], [4, 8]) == 0.0


class TestErrorTracker:
    def test_matches_batch_computation(self):
        has = [5, 0, 7, 0]
        max_ = [8, 8, 8, 8]
        tracker = ErrorTracker(has, max_, pool=sum(has), threshold=0.1)
        assert tracker.error == pytest.approx(global_error(has, max_))

    def test_incremental_update_matches_batch(self):
        has = [5, 0, 7, 0]
        max_ = [8, 8, 8, 8]
        tracker = ErrorTracker(has, max_, pool=12, threshold=0.1)
        tracker.update_has(0, 3, now=10)
        tracker.update_has(1, 2, now=11)
        assert tracker.error == pytest.approx(
            global_error([3, 2, 7, 0], max_)
        )

    def test_convergence_stamped_at_crossing_time(self):
        tracker = ErrorTracker([12, 0], [8, 8], pool=12, threshold=1.0)
        assert not tracker.is_converged
        tracker.update_has(0, 6, now=50)
        tracker.update_has(1, 6, now=55)
        assert tracker.is_converged
        assert tracker.converged_at == 55

    def test_already_converged_at_init(self):
        tracker = ErrorTracker([6, 6], [8, 8], pool=12, threshold=1.0)
        assert tracker.is_converged
        assert tracker.converged_at == 0

    def test_max_change_restarts_convergence(self):
        tracker = ErrorTracker([6, 6], [8, 8], pool=12, threshold=1.0)
        assert tracker.is_converged
        tracker.update_max(1, 0, now=100)  # tile 1 goes idle
        assert not tracker.is_converged
        tracker.update_has(0, 12, now=140)
        tracker.update_has(1, 0, now=141)
        assert tracker.converged_at == 141

    def test_alpha_uses_fixed_pool(self):
        tracker = ErrorTracker([12, 0], [8, 8], pool=12, threshold=0.5)
        assert tracker.alpha == pytest.approx(12 / 16)
        # Coins in flight do not change alpha.
        tracker.update_has(0, 10, now=5)
        assert tracker.alpha == pytest.approx(12 / 16)

    def test_target_for(self):
        tracker = ErrorTracker([12, 0], [8, 8], pool=12, threshold=0.5)
        assert tracker.target_for(0) == pytest.approx(6.0)

    @given(
        st.lists(st.integers(0, 50), min_size=2, max_size=8),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_incremental_equals_batch_property(self, has, data):
        max_ = data.draw(
            st.lists(
                st.integers(1, 32), min_size=len(has), max_size=len(has)
            )
        )
        pool = sum(has)
        tracker = ErrorTracker(has, max_, pool=pool, threshold=0.01)
        current = list(has)
        for _ in range(5):
            tid = data.draw(st.integers(0, len(has) - 1))
            val = data.draw(st.integers(-5, 60))
            current[tid] = val
            tracker.update_has(tid, val, now=1)
        # The tracker's alpha uses the fixed pool, not the (possibly
        # drifted) sum of the current vector.
        alpha = pool / sum(max_)
        expected = sum(
            abs(h - alpha * m) for h, m in zip(current, max_)
        ) / len(has)
        assert tracker.error == pytest.approx(expected, abs=1e-9)
