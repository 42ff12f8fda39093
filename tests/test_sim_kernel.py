"""Tests for the discrete-event kernel."""

import pytest

from repro.sim.kernel import COMPACT_FLOOR, SimulationError, Simulator
from repro.sim.rng import rng_for


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


def dead_entries(sim):
    """Cancelled events still in the heap, counted from the heap itself."""
    return sum(1 for entry in sim._queue if entry[-1].cancelled)


def assert_count_right(sim):
    assert sim._cancelled == dead_entries(sim)


class TestCompaction:
    def test_random_schedule_cancel_fires_live_events_in_order(self, sim):
        """A seeded mix of schedules and cancels, some made from inside
        callbacks, compacts the heap several times and still fires
        exactly the live callbacks in (time, priority, seq) order."""
        rng = rng_for(20240601)
        entries = []  # ((time, priority, seq), event)
        fired = []
        compactions = 0

        def add(delay):
            key = (sim.now + delay, int(rng.integers(0, 3)), len(entries))
            event = sim.schedule(delay, lambda k=key: fire(k), priority=key[1])
            entries.append((key, event))

        def cancel_random(count):
            nonlocal compactions
            for _ in range(count):
                key, event = entries[int(rng.integers(0, len(entries)))]
                if key[0] > sim.now:  # not fired yet
                    before = sim.pending
                    event.cancel()
                    compactions += sim.pending < before
                    assert_count_right(sim)

        def fire(key):
            fired.append(key)
            if key[2] % 10 == 0:
                # Delays of at least one cycle keep the firing order
                # globally sorted.
                add(1 + int(rng.integers(0, 300)))
                add(1 + int(rng.integers(0, 300)))
                cancel_random(6)

        for _ in range(5):
            for _ in range(600):
                add(int(rng.integers(0, 2000)))
            cancel_random(900)
        sim.run()

        live = sorted(key for key, event in entries if not event.cancelled)
        assert fired == live
        assert compactions >= 3
        assert sim.pending == 0 and sim._cancelled == 0

    def test_cancel_after_fire_or_twice_counts_once(self, sim):
        fired_event = sim.schedule(1, lambda: None)
        sim.run()
        fired_event.cancel()
        assert sim._cancelled == 0
        event = sim.schedule(5, lambda: None)
        sim.schedule(6, lambda: None)
        event.cancel()
        event.cancel()
        assert sim._cancelled == 1
        assert_count_right(sim)
        sim.run()
        assert sim._cancelled == 0 and sim.pending == 0

    def test_compaction_inside_running_callback(self, sim):
        fired = []
        events = [
            sim.schedule(10 + i, lambda i=i: fired.append(i))
            for i in range(4 * COMPACT_FLOOR)
        ]

        def cancel_most():
            before = sim.pending
            for event in events[: 3 * COMPACT_FLOOR]:
                event.cancel()
            # The heap shrank while run() was iterating over it.
            assert sim.pending < before
            assert_count_right(sim)

        sim.schedule(5, cancel_most)
        sim.run()
        assert fired == list(range(3 * COMPACT_FLOOR, 4 * COMPACT_FLOOR))
        assert sim._cancelled == 0

    def test_drain_resets_count(self, sim):
        events = [sim.schedule(10, lambda: None) for _ in range(10)]
        for event in events[:5]:
            event.cancel()
        assert sim._cancelled == 5
        sim.drain()
        assert sim._cancelled == 0 and sim.pending == 0
        # Drained events are no longer in the heap: cancelling them
        # must not count.
        for event in events[5:]:
            event.cancel()
        assert sim._cancelled == 0
        fired = []
        sim.schedule(1, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [1]

    def test_watchdog_churn_keeps_heap_bounded(self, sim):
        """Arm a long watchdog, cancel it three cycles later, 10k times:
        the heap stays within twice the live events plus the floor."""
        live = 0
        worst = 0

        def track(delta):
            nonlocal live, worst
            live += delta
            worst = max(worst, sim.pending - (2 * live + COMPACT_FLOOR))

        def arm(remaining):
            track(-1)  # this event fired
            watchdog = sim.schedule(4096, lambda: track(-1))
            sim.schedule(3, lambda: disarm(watchdog))
            track(2)
            if remaining > 1:
                sim.schedule(1, lambda: arm(remaining - 1))
                track(1)

        def disarm(watchdog):
            track(-1)
            watchdog.cancel()
            track(-1)

        sim.schedule(0, lambda: arm(10_000))
        track(1)
        sim.run()
        assert live == 0
        assert worst <= 0


#: Timers in the random script, and the script's operation budget.
N_TIMERS = 24
SCRIPT_OPS = 12_000


def run_script(use_timers, max_events=None):
    """One seeded script of one-shot events (scheduled and cancelled)
    and fixed-delay timers (armed and disarmed), driven from the top
    level, between bounded runs and from inside callbacks.

    With ``use_timers`` each timer is one event, re-armed with
    :meth:`Simulator.rearm` and disarmed with :meth:`Event.disarm`;
    otherwise each arming cancels the timer's last event and schedules
    a new one, and a disarm is a cancel.  Returns the fired callbacks as
    ``(cycle, tag)``, the events processed and whether the event budget
    ran out.
    """
    sim = Simulator(max_events=max_events)
    rng = rng_for(20261020)
    delays = [int(rng.integers(1, 400)) for _ in range(N_TIMERS)]
    priorities = [int(rng.integers(0, 3)) for _ in range(N_TIMERS)]
    timers = [None] * N_TIMERS
    shots = []
    fired = []
    budget = SCRIPT_OPS

    def fire(tag):
        fired.append((sim.now, tag))
        step(3)

    def arm(k):
        event = timers[k]
        if use_timers and event is not None:
            sim.rearm(event, delays[k])
            return
        if event is not None:
            event.cancel()
        timers[k] = sim.schedule(
            delays[k], lambda: fire(("timer", k)), priorities[k]
        )

    def disarm(k):
        event = timers[k]
        if event is not None and use_timers:
            event.disarm()
        elif event is not None:
            event.cancel()

    def step(count):
        nonlocal budget
        for _ in range(min(count, budget)):
            budget -= 1
            op = int(rng.integers(0, 5))
            if op == 0:
                key = len(shots)
                shots.append(
                    sim.schedule(
                        int(rng.integers(0, 500)),
                        lambda: fire(("shot", key)),
                        int(rng.integers(0, 3)),
                    )
                )
            elif op == 1 and shots:
                for _ in range(4):
                    shots[int(rng.integers(0, len(shots)))].cancel()
            elif op in (2, 3):
                arm(int(rng.integers(0, N_TIMERS)))
            else:
                disarm(int(rng.integers(0, N_TIMERS)))

    exhausted = False
    try:
        for _ in range(20):
            step(150)
            sim.run(until=sim.now + int(rng.integers(0, 300)))
        sim.run()
    except SimulationError:
        exhausted = True
    return fired, sim._events_processed, exhausted


class TestTimers:
    def test_rearm_fires_like_cancel_and_schedule(self):
        """The same seeded script, with timers and with cancel +
        schedule, fires the same callbacks at the same cycles in the
        same order, and exhausts the same event budget at the same
        event."""
        fired, processed, exhausted = run_script(use_timers=True)
        assert (fired, processed, exhausted) == run_script(use_timers=False)
        timers_fired = sum(1 for _, tag in fired if tag[0] == "timer")
        assert len(fired) > 2_000 and timers_fired > 200
        assert not exhausted and processed == len(fired)
        budget = processed // 2
        assert run_script(True, budget) == run_script(False, budget)
        assert run_script(True, budget)[1:] == (budget, True)

    def test_rearm_earlier_than_armed_raises(self, sim):
        event = sim.schedule(100, lambda: None)
        sim.run(until=10)
        with pytest.raises(SimulationError, match="earlier"):
            sim.rearm(event, 50)
        event.disarm()
        with pytest.raises(SimulationError, match="earlier"):
            sim.rearm(event, 89)
        sim.rearm(event, 90)  # cycle 100, as armed: allowed
        with pytest.raises(SimulationError):
            sim.rearm(event, -1)
        event.cancel()
        with pytest.raises(SimulationError, match="cancelled"):
            sim.rearm(event, 500)

    def test_rearm_pushes_after_fire_compaction_and_drain(self, sim):
        fired = []
        timer = sim.schedule(5, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5] and sim.pending == 0
        # Fired: the timer has no entry left, so re-arming pushes one.
        sim.rearm(timer, 5)
        assert sim.pending == 1
        sim.run()
        assert fired == [5, 10]

        # Compacted: a disarmed timer's entry goes with the cancelled.
        sim.rearm(timer, 1_000)
        timer.disarm()
        others = [sim.schedule(20, lambda: None) for _ in range(4 * COMPACT_FLOOR)]
        before = sim.pending
        for event in others[: 3 * COMPACT_FLOOR]:
            event.cancel()
        assert sim.pending < before - 2 * COMPACT_FLOOR
        assert all(entry[3] is not timer for entry in sim._queue)
        before = sim.pending
        sim.rearm(timer, 1_000)
        assert sim.pending == before + 1
        sim.run()
        assert fired == [5, 10, 1_010]

        # Drained: the entry is gone with the heap.
        sim.rearm(timer, 7)
        sim.drain()
        assert sim.pending == 0
        sim.rearm(timer, 7)
        assert sim.pending == 1
        sim.run()
        assert fired == [5, 10, 1_010, 1_017]

    def test_disarmed_timer_never_fires(self, sim):
        fired = []
        timer = sim.schedule(10, lambda: fired.append(sim.now))
        for _ in range(5):
            sim.run_for(3)
            sim.rearm(timer, 10)
        timer.disarm()
        sim.run()
        assert fired == [] and sim.pending == 0
        assert sim._events_processed == 0 and sim._cancelled == 0

    def test_run_until_with_stale_head(self):
        """A re-armed or disarmed timer's stale entry at the head of the
        heap is moved or dropped without firing or counting."""
        sim = Simulator(max_events=1)
        fired = []
        timer = sim.schedule(10, lambda: fired.append(sim.now))
        sim.run(until=5)
        sim.rearm(timer, 20)  # armed for 25; the entry at 10 is stale
        sim.run(until=20)
        assert sim.now == 20 and fired == [] and sim.pending == 1
        with pytest.raises(SimulationError, match="budget"):
            sim.run(until=30)
        assert fired == [25]

        sim = Simulator()
        timer = sim.schedule(10, lambda: fired.append(sim.now))
        timer.disarm()
        sim.run(until=20)
        assert sim.now == 20 and sim.pending == 0
        sim.rearm(timer, 1)
        sim.run(until=30)
        assert fired == [25, 21]
