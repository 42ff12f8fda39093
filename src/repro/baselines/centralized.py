"""Centralized power-management controllers (C-RR and BC-C).

Both schemes keep a single On-chip Controller (OCC) that sequentially
polls tile status over the NoC, computes the allocation, and pushes a
setting to each tile — the O(N) loop of Section II-B.  They differ only
in *policy*:

* **C-RR** (Centralized Round-Robin, after Mantovani et al. [42]): tiles
  alternately run at maximum or minimum (V, F) under the power cap, with
  the allocation rotated periodically for fairness.
* **BC-C** (BlitzCoin-Centralized): the same fine-grained proportional
  allocation BlitzCoin converges to, but computed centrally — isolating
  the benefit of the allocation policy from the benefit of
  decentralization (Section V-C).

The controller interacts with the SoC through two callbacks: reading a
tile's capability (``p_max`` when active) and applying a power target.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

from repro.faults import runtime as _faults
from repro.noc.fabric import NocFabric
from repro.noc.packet import MessageType, Packet
from repro.sim.kernel import Simulator


@dataclass(frozen=True)
class ControllerTiming:
    """Cycle costs of the centralized control loop.

    Defaults model a firmware OCC at the NoC clock: a register-read poll
    and a register-write set per tile, plus a decision computation.
    """

    #: Controller-side cycles to issue a poll and absorb the reply
    #: (firmware register access, Section II-B).  Calibrated together
    #: with set_overhead so a 13-tile loop costs ~4-8 us, the paper's
    #: measured BC-C / C-RR response-time range (Table I).
    poll_overhead: int = 150
    set_overhead: int = 120  # controller-side cycles to issue a setting
    compute_per_tile: int = 8  # policy computation cycles per managed tile
    idle_period: int = 8192  # cycles between periodic loops when idle
    #: Consecutive re-polls of one unreachable tile (its poll packet was
    #: lost) before the controller skips it for this loop.
    poll_retry_limit: int = 2

    def __post_init__(self) -> None:
        if min(self.poll_overhead, self.set_overhead, self.compute_per_tile) < 0:
            raise ValueError("controller timing must be non-negative")
        if self.idle_period < 1:
            raise ValueError("idle_period must be >= 1")
        if self.poll_retry_limit < 0:
            raise ValueError("poll_retry_limit must be >= 0")


class CentralizedPolicy(abc.ABC):
    """Allocation policy plugged into :class:`CentralizedScheme`."""

    @abc.abstractmethod
    def allocate(
        self, p_max_by_tile: Dict[int, float], budget_mw: float
    ) -> Dict[int, float]:
        """Per-tile power targets (mW) for the currently active tiles."""


class RoundRobinPolicy(CentralizedPolicy):
    """C-RR: a rotating subset runs at (or near) max power, the rest at
    the minimum (V, F) idle point.

    ``p_min_by_tile`` is each tile's idle floor (minimum voltage with
    the clock wound down — near-zero progress).  In rotated order, each
    tile is granted its maximum power if the remaining headroom allows,
    or the headroom itself when that is still a substantial fraction of
    its maximum (so a big accelerator alone under a small cap is not
    starved forever); the rotation offset advances every control loop,
    which is the scheme's fairness mechanism.

    This is what makes C-RR lose throughput to proportional schemes
    (Section VI-A): granted tiles burn power at the inefficient
    high-voltage end of the curve while the rest are parked, instead of
    everyone running at the efficient low-voltage points.
    """

    #: Grants below this fraction of a tile's p_max are skipped — in the
    #: leakage-dominated region they would buy almost no progress.
    MIN_GRANT_FRACTION = 0.25

    def __init__(self, p_min_by_tile: Dict[int, float]) -> None:
        self.p_min_by_tile = dict(p_min_by_tile)
        self._rotation = 0

    def allocate(
        self, p_max_by_tile: Dict[int, float], budget_mw: float
    ) -> Dict[int, float]:
        tiles = sorted(p_max_by_tile)
        if not tiles:
            return {}
        n = len(tiles)
        order = [tiles[(self._rotation + k) % n] for k in range(n)]
        self._rotation = (self._rotation + 1) % n
        floor = sum(self.p_min_by_tile.get(t, 0.0) for t in tiles)
        targets = {t: self.p_min_by_tile.get(t, 0.0) for t in tiles}
        if floor > budget_mw:
            # Even all-minimum exceeds the cap: degrade proportionally so
            # the budget is never violated.
            scale = budget_mw / floor
            return {t: p * scale for t, p in targets.items()}
        headroom = budget_mw - floor
        for t in order:
            p_max = p_max_by_tile[t]
            grant = min(p_max, targets[t] + headroom)
            if grant - targets[t] <= 0:
                continue
            if grant < self.MIN_GRANT_FRACTION * p_max:
                continue
            headroom -= grant - targets[t]
            targets[t] = grant
        return targets


class ProportionalPolicy(CentralizedPolicy):
    """BC-C: every tile at the same fraction of its maximum power."""

    def allocate(
        self, p_max_by_tile: Dict[int, float], budget_mw: float
    ) -> Dict[int, float]:
        total = sum(p_max_by_tile.values())
        if total <= 0:
            return {t: 0.0 for t in p_max_by_tile}
        fraction = min(1.0, budget_mw / total)
        return {t: p * fraction for t, p in p_max_by_tile.items()}


@dataclass
class _LoopState:
    pending_targets: Dict[int, float] = field(default_factory=dict)
    poll_queue: List[int] = field(default_factory=list)
    set_queue: List[int] = field(default_factory=list)
    triggered_at: Optional[int] = None


class CentralizedScheme:
    """The O(N) poll-compute-set control loop over the NoC.

    Parameters
    ----------
    controller_tile:
        NoC position of the OCC (a CPU or auxiliary tile).
    capability:
        ``capability(tid) -> p_max_mw`` for *active* tiles, 0 when idle.
    apply_target:
        ``apply_target(tid, p_mw)`` pushes a power target into the tile's
        local actuator (each tile still has its own oscillator; only the
        decision is centralized, Section V-C).
    """

    def __init__(
        self,
        sim: Simulator,
        noc: NocFabric,
        controller_tile: int,
        managed_tiles: List[int],
        policy: CentralizedPolicy,
        budget_mw: float,
        capability: Callable[[int], float],
        apply_target: Callable[[int, float], None],
        timing: Optional[ControllerTiming] = None,
    ) -> None:
        self.sim = sim
        self.noc = noc
        self.controller_tile = controller_tile
        self.managed = list(managed_tiles)
        self.policy = policy
        self.budget_mw = budget_mw
        self.capability = capability
        self.apply_target = apply_target
        self.timing = timing or ControllerTiming()
        self.response_times: List[int] = []
        self.response_log: List[tuple] = []  # (change_time, response)
        self._last_targets: Dict[int, float] = {t: 0.0 for t in self.managed}
        self._state = _LoopState()
        self._loop_running = False
        self._rerun_requested = False
        self._started = False
        #: Dead controller: the scheme's single point of failure
        #: (Section II-B) — once set, no loop ever runs again.
        self._dead = False
        self.polls_retried = 0
        self.polls_abandoned = 0
        self.sets_lost = 0
        #: uids of this scheme's packets the fabric reported as lost.
        self._lost_uids: Set[int] = set()
        noc.add_loss_listener(self._on_packet_lost)
        # An installed fault injector schedules controller-kill events
        # addressed at our controller tile.
        if _faults.injector is not None:
            _faults.injector.bind_controller(self)

    def _on_packet_lost(self, packet: Packet, reason: str) -> None:
        if packet.msg_type in (
            MessageType.PM_POLL,
            MessageType.PM_SET,
            MessageType.PM_NOTIFY,
        ):
            self._lost_uids.add(packet.uid)

    def kill_controller(self) -> None:
        """Fail the controller tile: the control loop halts forever.

        This is the experiment behind the paper's robustness argument:
        a centralized scheme has exactly one component whose death
        stops all power management, while BlitzCoin has none.
        """
        self._dead = True
        self.noc.detach(self.controller_tile)
        self.noc.mark_dead(self.controller_tile)

    # ---------------------------------------------------------------- start
    def start(self) -> None:
        """Kick off the periodic control loop."""
        if self._started:
            raise RuntimeError("scheme already started")
        self._started = True
        self.sim.schedule(1, self._begin_loop)

    def on_activity_change(self, tid: int) -> None:
        """A tile started/finished work: trigger (or queue) a loop.

        Models the PM_NOTIFY message a tile sends to the controller; the
        notification itself costs one NoC traversal.
        """
        latency = self._noc_latency(tid)
        stamp = self.sim.now
        packet = Packet(
            src=tid,
            dst=self.controller_tile,
            msg_type=MessageType.PM_NOTIFY,
        )

        def arrive() -> None:
            if self._dead:
                return
            if packet.uid in self._lost_uids:
                # The notification never reached the controller; the
                # activity change goes unseen until the idle-period loop.
                self._lost_uids.discard(packet.uid)
                return
            if self._state.triggered_at is None:
                self._state.triggered_at = stamp
            if self._loop_running:
                self._rerun_requested = True
            else:
                self._begin_loop()

        self.noc.send(packet)
        self.sim.schedule(latency, arrive)

    # ----------------------------------------------------------------- loop
    def _noc_latency(self, tid: int) -> int:
        return max(1, self.topology_distance(tid))

    def topology_distance(self, tid: int) -> int:
        """Hop distance from the controller to ``tid``."""
        return self.noc.topology.hop_distance(self.controller_tile, tid)

    def _begin_loop(self) -> None:
        if self._loop_running or not self._started or self._dead:
            return
        self._loop_running = True
        self._state.poll_queue = list(self.managed)
        self._state.pending_targets = {}
        self._poll_next({})

    def _poll_next(self, answers: Dict[int, float], retries: int = 0) -> None:
        if self._dead:
            return
        if not self._state.poll_queue:
            self._compute(answers)
            return
        tid = self._state.poll_queue[0]
        round_trip = 2 * self._noc_latency(tid) + self.timing.poll_overhead
        packet = Packet(
            src=self.controller_tile, dst=tid, msg_type=MessageType.PM_POLL
        )
        self.noc.send(packet)

        def answered() -> None:
            if self._dead:
                return
            if packet.uid in self._lost_uids:
                # The poll (or its reply) was eaten by the fabric: the
                # firmware re-polls a bounded number of times, then
                # treats the tile as unreachable for this loop.
                self._lost_uids.discard(packet.uid)
                if retries < self.timing.poll_retry_limit:
                    self.polls_retried += 1
                    self._poll_next(answers, retries + 1)
                    return
                self.polls_abandoned += 1
            else:
                answers[tid] = self.capability(tid)
            self._state.poll_queue.pop(0)
            self._poll_next(answers)

        self.sim.schedule(round_trip, answered)

    def _compute(self, answers: Dict[int, float]) -> None:
        active = {t: p for t, p in answers.items() if p > 0}
        targets = self.policy.allocate(active, self.budget_mw) if active else {}
        full = {t: targets.get(t, 0.0) for t in self.managed}
        self._state.pending_targets = full
        # Apply decreases before increases so the transition never
        # overshoots the power cap while tile actuators slew.
        self._state.set_queue = sorted(
            self.managed,
            key=lambda t: full[t] - self._last_targets.get(t, 0.0),
        )
        delay = self.timing.compute_per_tile * max(1, len(self.managed))
        self.sim.schedule(delay, self._set_next)

    def _set_next(self) -> None:
        if self._dead:
            return
        if not self._state.set_queue:
            self._finish_loop()
            return
        tid = self._state.set_queue.pop(0)
        latency = self._noc_latency(tid) + self.timing.set_overhead
        target = self._state.pending_targets[tid]
        packet = Packet(
            src=self.controller_tile,
            dst=tid,
            msg_type=MessageType.PM_SET,
            payload=target,
        )
        self.noc.send(packet)

        def applied() -> None:
            if self._dead:
                return
            if packet.uid in self._lost_uids:
                # The setting never reached the tile: it keeps its old
                # target until the next loop repeats the write.
                self._lost_uids.discard(packet.uid)
                self.sets_lost += 1
                self._set_next()
                return
            self._last_targets[tid] = target
            self.apply_target(tid, target)
            self._set_next()

        self.sim.schedule(latency, applied)

    def _finish_loop(self) -> None:
        if self._dead:
            return
        if self._state.triggered_at is not None:
            response = self.sim.now - self._state.triggered_at
            self.response_times.append(response)
            self.response_log.append((self._state.triggered_at, response))
            self._state.triggered_at = None
        self._loop_running = False
        if self._rerun_requested:
            self._rerun_requested = False
            self._begin_loop()
        else:
            self.sim.schedule(self.timing.idle_period, self._begin_loop)
