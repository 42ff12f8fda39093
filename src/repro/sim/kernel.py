"""Event-driven simulation kernel.

A deliberately small core: a binary-heap event queue.  Each heap entry
is a tuple ``(time, priority, seq, event)``.  The sequence number is
unique per simulator, so entries compare in C on their first three
fields and never reach the :class:`Event`, and events scheduled at the
same cycle fire in a fully deterministic order.  That in turn makes
every Monte-Carlo experiment in the benchmark harness reproducible from
its seed alone.  :meth:`Simulator.run` pops each entry once; the one
entry past a bounded run's ``until`` goes back on the heap, which the
total order makes invisible to later pops.

Events are cheap to make.  :class:`Event` has no ``__init__``:
:meth:`Simulator.schedule` allocates the slot object directly and
fills its four slots, so scheduling runs no Python frame besides
``schedule`` itself.  ``schedule`` stays the one entry point, which
callers and wrappers (the runtime sanitizer, tracers) can replace.

Cancellation is lazy: :meth:`Event.cancel` marks the event and the
kernel skips it when it reaches the top of the heap.  Watchdogs that
are armed for thousands of cycles and cancelled a few cycles later
would otherwise fill the heap with dead entries, so the simulator
counts the cancelled entries still in its heap; ``cancel`` does the
counting inline.  Once they are more than half of it, and the heap
holds more than :data:`COMPACT_FLOOR` entries, the simulator drops
them all and re-heapifies in place (asyncio's rule for cancelled
timer handles).  The order is total, so dropping entries
never changes which event fires next.  :attr:`Simulator.pending` is the
heap length: the live events plus the cancelled ones not yet dropped.
Only a cancel adds a dead entry, and right after each one the heap
holds at most twice its live events plus the floor.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from repro.obs import runtime as _obs

#: Heap size at or below which cancelled entries are never compacted.
COMPACT_FLOOR = 64

#: Allocates an :class:`Event` without running any ``__init__``.
_new_event: Callable[[type], Any] = object.__new__


class SimulationError(RuntimeError):
    """Raised when the simulator is driven outside its contract."""


class Event:
    """A scheduled callback, as returned by :meth:`Simulator.schedule`.

    ``time`` is the cycle it fires at.  A cancelled event stays in the
    heap until it is popped or compacted away, and is skipped either
    way.  Cancelling an event that already fired, or cancelling it
    twice, does nothing more.  Only :meth:`Simulator.schedule` makes
    events; it sets every slot, ``_sim`` being the simulator whose heap
    holds the event (None once it left).
    """

    __slots__ = ("time", "callback", "cancelled", "_sim")

    time: int
    callback: Callable[[], None]
    cancelled: bool
    _sim: Optional[Simulator]

    def cancel(self) -> None:
        """Mark this event so the kernel skips it."""
        if self.cancelled:
            return
        self.cancelled = True
        sim = self._sim
        if sim is not None:
            # Count one cancelled entry in the heap; compact past half.
            sim._cancelled += 1
            if 2 * sim._cancelled > len(sim._queue) > COMPACT_FLOOR:
                sim._compact()


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
        self._queue: List[Tuple[int, int, int, Event]] = []
        self._seq: int = 0
        #: Cancelled events still in ``_queue``.
        self._cancelled = 0
        self._running = False
        self._stopped = False
        self._events_processed = 0
        self._max_events = max_events

    @property
    def pending(self) -> int:
        """Heap entries: live events plus cancelled ones not yet dropped."""
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
        time = self.now + delay
        event = _new_event(Event)
        event.time = time
        event.callback = callback
        event.cancelled = False
        event._sim = self
        heapq.heappush(self._queue, (time, priority, self._seq, event))
        self._seq += 1
        return event

    def schedule_at(
        self, time: int, callback: Callable[[], None], priority: int = 0
    ) -> Event:
        """Schedule ``callback`` at an absolute cycle count."""
        return self.schedule(time - self.now, callback, priority)

    def _compact(self) -> None:
        """Drop every cancelled entry from the heap and re-heapify."""
        queue = self._queue
        # In place: run() holds an alias to the list.
        queue[:] = [entry for entry in queue if not entry[3].cancelled]
        heapq.heapify(queue)
        self._cancelled = 0

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
        queue = self._queue
        heappop = heapq.heappop
        max_events = self._max_events
        processed = self._events_processed
        try:
            while queue and not self._stopped:
                entry = heappop(queue)
                event = entry[3]
                if event.cancelled:
                    self._cancelled -= 1
                    continue
                time = entry[0]
                if until is not None and time > until:
                    # The order is total, so pushing the entry back
                    # leaves the pop order unchanged.
                    heapq.heappush(queue, entry)
                    break
                event._sim = None
                self.now = time
                event.callback()
                processed += 1
                # Profiling hook: one branch when disabled; the sink only
                # counts (it never schedules), so results are unchanged.
                if _obs.sink is not None:
                    _obs.sink.kernel_event(self.now, event.callback)
                if max_events is not None and processed >= max_events:
                    raise SimulationError(
                        f"event budget exhausted ({max_events} events); "
                        "likely a non-terminating model"
                    )
            if until is not None and not self._stopped and self.now < until:
                self.now = until
        finally:
            self._events_processed = processed
            self._running = False
        return self.now

    def run_for(self, cycles: int) -> int:
        """Run for ``cycles`` cycles of simulated time from ``now``."""
        return self.run(until=self.now + cycles)

    def drain(self) -> None:
        """Discard all pending events without running them."""
        for entry in self._queue:
            entry[3]._sim = None
        self._queue.clear()
        self._cancelled = 0
