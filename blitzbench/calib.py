"""Host-speed calibration: a reference load sampled alongside the program.

The benchmark's host changes speed by up to ~1.8x for seconds to minutes
at a time (see NOTES.md), and a 30 s run can sit wholly in a slow
stretch.  So each measured process also runs a fixed reference load in
short ticks, ~20 per second, from a ``SIGALRM`` handler on its main
thread.  Each tick advances :class:`RefSim`, a small discrete-event
simulation written for the benchmark: a heap of timed events dispatched
to bound-method callbacks, tiles on a d x d torus that trade tokens with
neighbours by packet objects, and a short floating-point bisection per
decision.  It runs the same kind of interpreter work as the simulator
under test, in the same process and on the same CPU, at nearly the same
moments.  Its mean tick time is the host's speed.

A gated timing is reported at the reference speed: a throughput is
multiplied, and a duration divided, by :func:`host_factor`, the mean
tick time over :data:`TICK_REF_S`.  The reference load never changes
with the program, so a program change moves the program's side of the
ratio only.  Changing this module, or :data:`TICK_REF_S`, moves every
gated timing and needs a fresh baseline.
"""

from __future__ import annotations

import gc
import heapq
import os
import random
import signal
import statistics
import time
from typing import Any, Callable, Dict, List, Optional

#: Seconds between ticks (``ITIMER_REAL``).
INTERVAL_S = 0.05
#: Events per tick: ~1-1.5 ms on a 2-vCPU Xeon, ~3% of the process's time.
TICK_EVENTS = 250
#: Mean tick time that defines the reference speed (a fast stretch of
#: the 2-vCPU Intel Xeon host the bounds were set on).  Fixed forever.
TICK_REF_S = 0.002


class _Event:
    __slots__ = ("t", "seq", "fn", "arg")

    def __init__(self, t: int, seq: int, fn: Callable[[Any], None], arg: Any) -> None:
        self.t = t
        self.seq = seq
        self.fn = fn
        self.arg = arg

    def __lt__(self, other: "_Event") -> bool:
        if self.t != other.t:
            return self.t < other.t
        return self.seq < other.seq


class _Packet:
    __slots__ = ("src", "dst", "tokens", "hops")

    def __init__(self, src: int, dst: int, tokens: int, hops: int) -> None:
        self.src = src
        self.dst = dst
        self.tokens = tokens
        self.hops = hops


class _Tile:
    __slots__ = ("tid", "x", "y", "tokens", "target", "seen")

    def __init__(self, tid: int, x: int, y: int, target: int) -> None:
        self.tid = tid
        self.x = x
        self.y = y
        self.tokens = 16
        self.target = target
        self.seen: Dict[int, int] = {}


class RefSim:
    """The reference load: a never-ending token exchange on a torus.

    Every event schedules exactly one more, so the heap, and with it the
    working set, stays the same size however long it runs.
    """

    def __init__(self, d: int = 16, seed: int = 1) -> None:
        self.d = d
        self.rng = random.Random(seed)
        self.heap: List[_Event] = []
        self.seq = 0
        self.now = 0
        self.tiles = [_Tile(i, i % d, i // d, 8 + (i * 37) % 17) for i in range(d * d)]
        for tile in self.tiles:
            for _ in range(3):
                self.schedule(self.rng.randrange(1, 50), self.wake, tile)

    def schedule(self, delay: int, fn: Callable[[Any], None], arg: Any) -> None:
        self.seq += 1
        heapq.heappush(self.heap, _Event(self.now + delay, self.seq, fn, arg))

    def neighbours(self, tile: _Tile) -> List[_Tile]:
        d = self.d
        return [self.tiles[((tile.y + dy) % d) * d + (tile.x + dx) % d]
                for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))]

    def hops(self, a: _Tile, b: _Tile) -> int:
        d = self.d
        dx = abs(a.x - b.x)
        dy = abs(a.y - b.y)
        return min(dx, d - dx) + min(dy, d - dy)

    @staticmethod
    def level(tokens: int) -> float:
        """Bisect a cubic power curve for the level ``tokens`` buys."""
        lo, hi = 0.0, 1.0
        budget = 0.05 + tokens / 64.0
        for _ in range(6):
            mid = (lo + hi) / 2.0
            if 0.2 * mid + 0.8 * mid * mid * mid <= budget:
                lo = mid
            else:
                hi = mid
        return lo

    def wake(self, tile: _Tile) -> None:
        peer = self.rng.choice(self.neighbours(tile))
        gap = (tile.tokens - tile.target) - (peer.tokens - peer.target)
        give = min(gap // 2, tile.tokens) if gap > 0 else 0
        tile.tokens -= give
        packet = _Packet(tile.tid, peer.tid, give, self.hops(tile, peer))
        self.schedule(2 + packet.hops * 3 + int(4.0 * self.level(tile.tokens)), self.deliver, packet)

    def deliver(self, packet: _Packet) -> None:
        dst = self.tiles[packet.dst]
        dst.tokens += packet.tokens
        dst.seen[packet.src] = dst.seen.get(packet.src, 0) + 1
        self.schedule(self.rng.randrange(5, 60), self.wake, dst)

    def step(self, n: int) -> None:
        heap = self.heap
        for _ in range(n):
            event = heapq.heappop(heap)
            self.now = event.t
            event.fn(event.arg)


class Sampler:
    """Ticks the reference load from ``SIGALRM`` while started.

    ``ticks`` holds each tick's CPU time (``thread_time``, so a tick that
    another process or thread preempts is not charged the wait) and
    ``busy_s`` the wall time spent in the handler, which a caller
    subtracts from what it times.  The collector is paused during a
    tick, so the program's garbage is never collected on the reference
    load's clock.
    """

    def __init__(self, interval_s: float = INTERVAL_S, events: int = TICK_EVENTS,
                 cpu: Optional[int] = None) -> None:
        self.interval_s = interval_s
        self.events = events
        self.cpu = cpu
        self.home = os.sched_getaffinity(0) if cpu is not None else set()
        self.sim = RefSim()
        self.ticks: List[float] = []
        self.busy_s = 0.0
        self._previous: Any = None

    def _tick(self, signum: int, frame: Any) -> None:
        t_enter = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        if self.cpu is not None:
            os.sched_setaffinity(0, {self.cpu})
        try:
            t0 = time.thread_time()
            self.sim.step(self.events)
            self.ticks.append(time.thread_time() - t0)
        finally:
            if self.cpu is not None:
                os.sched_setaffinity(0, self.home)
            if collecting:
                gc.enable()
            self.busy_s += time.perf_counter() - t_enter

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def summary(self) -> Dict[str, float]:
        """What a process reports about its ticks."""
        return {
            "ticks": len(self.ticks),
            "tick_mean_s": statistics.fmean(self.ticks) if self.ticks else 0.0,
            "tick_p50_s": statistics.median(self.ticks) if self.ticks else 0.0,
        }


def host_factor(tick_mean_s: float) -> float:
    """How much slower the host ran than the reference speed (>1: slower)."""
    if tick_mean_s <= 0.0:
        raise ValueError("no reference-load ticks were taken")
    return tick_mean_s / TICK_REF_S
