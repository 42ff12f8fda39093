"""Event-driven simulation kernel.

A deliberately small core: a binary-heap event queue keyed by
``(time, priority, sequence)``.  The sequence number makes event ordering
fully deterministic for events scheduled at the same cycle, which in turn
makes every Monte-Carlo experiment in the benchmark harness reproducible
from its seed alone.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.obs import runtime as _obs


class SimulationError(RuntimeError):
    """Raised when the simulator is driven outside its contract."""


@dataclass(order=True)
class Event:
    """A scheduled callback.

    Events compare by ``(time, priority, seq)`` so the heap pops them in
    deterministic order.  ``cancelled`` events stay in the heap but are
    skipped when popped (lazy deletion).
    """

    time: int
    priority: int
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        """Mark this event so the kernel skips it when popped."""
        self.cancelled = True


class Simulator:
    """Deterministic discrete-event simulator with integer time.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(10, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [10]
    """

    def __init__(self, max_events: Optional[int] = None) -> None:
        self.now: int = 0
        self._queue: List[Event] = []
        self._seq: int = 0
        self._running = False
        self._stopped = False
        self._events_processed = 0
        self._max_events = max_events

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (cancelled ones excluded)."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of events still in the queue, including cancelled ones."""
        return len(self._queue)

    def schedule(
        self, delay: int, callback: Callable[[], None], priority: int = 0
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` cycles from now.

        Returns the :class:`Event`, which the caller may later cancel.
        Lower ``priority`` values run first among same-cycle events.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        event = Event(self.now + delay, priority, self._seq, callback)
        self._seq += 1
        heapq.heappush(self._queue, event)
        return event

    def schedule_at(
        self, time: int, callback: Callable[[], None], priority: int = 0
    ) -> Event:
        """Schedule ``callback`` at an absolute cycle count."""
        return self.schedule(time - self.now, callback, priority)

    def stop(self) -> None:
        """Stop the current :meth:`run` after the executing event returns."""
        self._stopped = True

    def run(self, until: Optional[int] = None) -> int:
        """Run events until the queue drains, ``stop()`` is called, or
        simulated time would pass ``until`` (NoC cycles).

        Returns the simulation time, in cycles, when the run ended.  When ``until`` is
        given, ``now`` is advanced to ``until`` even if the queue drained
        earlier, so repeated bounded runs compose naturally.
        """
        if self._running:
            raise SimulationError("run() called re-entrantly from an event")
        self._running = True
        self._stopped = False
        try:
            while self._queue and not self._stopped:
                event = self._queue[0]
                if event.cancelled:
                    heapq.heappop(self._queue)
                    continue
                if until is not None and event.time > until:
                    break
                heapq.heappop(self._queue)
                self.now = event.time
                event.callback()
                self._events_processed += 1
                # Profiling hook: one branch when disabled; the sink only
                # counts (it never schedules), so results are unchanged.
                if _obs.sink is not None:
                    _obs.sink.kernel_event(self.now, event.callback)
                if (
                    self._max_events is not None
                    and self._events_processed >= self._max_events
                ):
                    raise SimulationError(
                        f"event budget exhausted ({self._max_events} events); "
                        "likely a non-terminating model"
                    )
            if until is not None and not self._stopped and self.now < until:
                self.now = until
        finally:
            self._running = False
        return self.now

    def run_for(self, cycles: int) -> int:
        """Run for ``cycles`` cycles of simulated time from ``now``."""
        return self.run(until=self.now + cycles)

    def drain(self) -> None:
        """Discard all pending events without running them."""
        self._queue.clear()
