"""Tests for the discrete-event kernel."""

import pytest

from repro.sim.kernel import SimulationError, Simulator


class TestScheduling:
    def test_single_event_fires_at_scheduled_time(self, sim):
        fired = []
        sim.schedule(10, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [10]

    def test_events_fire_in_time_order(self, sim):
        order = []
        sim.schedule(30, lambda: order.append("c"))
        sim.schedule(10, lambda: order.append("a"))
        sim.schedule(20, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_fire_in_schedule_order(self, sim):
        order = []
        for tag in "abc":
            sim.schedule(5, lambda t=tag: order.append(t))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_priority_breaks_same_time_ties(self, sim):
        order = []
        sim.schedule(5, lambda: order.append("low"), priority=1)
        sim.schedule(5, lambda: order.append("high"), priority=0)
        sim.run()
        assert order == ["high", "low"]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_schedule_at_absolute_time(self, sim):
        fired = []
        sim.schedule_at(42, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [42]

    def test_zero_delay_fires_at_current_time(self, sim):
        fired = []
        sim.schedule(0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [0]

    def test_events_scheduled_from_callbacks_run(self, sim):
        fired = []

        def first():
            sim.schedule(5, lambda: fired.append(sim.now))

        sim.schedule(10, first)
        sim.run()
        assert fired == [15]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        event = sim.schedule(10, lambda: fired.append(1))
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_one_of_many(self, sim):
        fired = []
        sim.schedule(10, lambda: fired.append("keep"))
        event = sim.schedule(10, lambda: fired.append("drop"))
        event.cancel()
        sim.run()
        assert fired == ["keep"]


class TestBoundedRun:
    def test_run_until_stops_before_late_events(self, sim):
        fired = []
        sim.schedule(10, lambda: fired.append("early"))
        sim.schedule(100, lambda: fired.append("late"))
        sim.run(until=50)
        assert fired == ["early"]
        assert sim.now == 50

    def test_run_until_advances_clock_when_queue_drains(self, sim):
        sim.run(until=500)
        assert sim.now == 500

    def test_late_events_fire_on_subsequent_run(self, sim):
        fired = []
        sim.schedule(100, lambda: fired.append(sim.now))
        sim.run(until=50)
        sim.run()
        assert fired == [100]

    def test_run_for_relative_horizon(self, sim):
        sim.run_for(25)
        sim.run_for(25)
        assert sim.now == 50

    def test_stop_halts_immediately(self, sim):
        fired = []

        def stopper():
            fired.append("first")
            sim.stop()

        sim.schedule(5, stopper)
        sim.schedule(10, lambda: fired.append("second"))
        sim.run()
        assert fired == ["first"]

    def test_reentrant_run_rejected(self, sim):
        def nested():
            sim.run()

        sim.schedule(1, nested)
        with pytest.raises(SimulationError):
            sim.run()

    def test_event_budget_guard(self):
        sim = Simulator(max_events=10)

        def loop():
            sim.schedule(1, loop)

        sim.schedule(1, loop)
        with pytest.raises(SimulationError):
            sim.run()

