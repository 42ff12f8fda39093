"""The decentralized coin-exchange engine.

One finite-state machine per tile, all running on a shared event
simulator and exchanging packets over a :class:`~repro.noc.NocFabric`.
The message protocol follows Fig. 2:

1-way (Algorithm 2)::

    initiator --COIN_STATUS(has, max)--> partner
    partner: compute pairwise update, apply own delta
    partner --COIN_UPDATE(delta)--> initiator
    initiator: apply delta, dynamic-timing adjust, schedule next

4-way (Algorithm 1)::

    center --COIN_REQUEST--> 4 neighbors
    each neighbor --COIN_STATUS(has, max)--> center
    center: compute group update, apply own delta
    center --COIN_UPDATE(delta)--> each neighbor

Updates carry *deltas*, not absolute counts, so coins are conserved even
when exchanges overlap in time; a tile hit by two concurrent pulls can
transiently go negative, exactly the sign-bit behaviour the hardware
implements (Section IV-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set

import numpy as np

from repro.analysis.sanitize import attach_sanitizer, sanitize_enabled
from repro.core.coins import TileCoins, group_deltas, pair_deltas
from repro.core.config import BlitzCoinConfig, ExchangeMode
from repro.core.metrics import ErrorTracker
from repro.faults import runtime as _faults
from repro.noc.fabric import NocFabric
from repro.noc.packet import MessageType, Packet
from repro.noc.topology import MeshTopology
from repro.obs import runtime as _obs
from repro.sim.kernel import Event, Simulator


#: The exchange's message classes, bound once per process: on CPython
#: 3.11, whose ``EnumType`` defines ``__getattr__``, every
#: ``MessageType.X`` lookup takes the slow attribute path.
_COIN_REQUEST = MessageType.COIN_REQUEST
_COIN_STATUS = MessageType.COIN_STATUS
_COIN_UPDATE = MessageType.COIN_UPDATE


class EngineError(RuntimeError):
    """Raised when the engine detects a broken invariant."""


@dataclass
class _StatusPayload:
    has: int
    max: int
    exchange_uid: int
    nack: bool = False
    shake: bool = False


@dataclass
class _UpdatePayload:
    delta: int
    moved: bool
    exchange_uid: int
    nack: bool = False


@dataclass
class _RequestPayload:
    exchange_uid: int


@dataclass
class _TileFsm:
    """Per-tile mutable algorithm state."""

    tid: int
    coins: TileCoins
    interval: int
    neighbors: List[int]
    non_neighbors: List[int]
    rr_index: int = 0
    rp_index: int = 0
    exchange_count: int = 0
    busy: bool = False
    locked: bool = False
    lock_uid: int = -1
    zero_streak: int = 0
    jitter_state: int = 1
    next_event: Optional[Event] = None
    #: The exchange watchdog: one timer for the tile's life, re-armed
    #: at each initiation and disarmed when the exchange ends.
    timeout_event: Optional[Event] = None
    #: The exchange uid the armed exchange watchdog guards.
    timeout_uid: int = -1
    #: 4-way participant: the lock watchdog, a timer that releases a
    #: lock whose center never answers; re-armed at each grant and
    #: disarmed when the lock is released.
    lock_event: Optional[Event] = None
    #: Fault state: a dead tile lost its registers (coins confiscated
    #: and reconciled); a hung tile keeps them but stops responding.
    dead: bool = False
    hung: bool = False
    #: Target to restore when a dead tile revives.
    saved_max: int = 0
    #: 1-way: the partner of the outstanding exchange (-1 when none).
    pending_partner: int = -1
    #: Consecutive exchange timeouts per partner; a partner at the
    #: configured limit is skipped in rotation until it answers again.
    fail_streak: Dict[int, int] = field(default_factory=dict)
    #: Last coin counts observed from each neighbor (via their status
    #: messages), used for the neighborhood hotspot check.
    neighbor_cache: Dict[int, int] = field(default_factory=dict)
    # 4-way collection state
    pending_uid: int = -1
    pending_statuses: Dict[int, _StatusPayload] = field(default_factory=dict)
    pending_order: List[int] = field(default_factory=list)


class CoinExchangeEngine:
    """BlitzCoin running decentralized over a NoC fabric."""

    def __init__(
        self,
        sim: Simulator,
        noc: NocFabric,
        config: BlitzCoinConfig,
        max_by_tile: Sequence[int],
        initial_has: Sequence[int],
        *,
        managed_tiles: Optional[Sequence[int]] = None,
        rng: Optional[np.random.Generator] = None,
        stop_on_convergence: bool = False,
        coin_listener: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        self.sim = sim
        self.noc = noc
        self.topology: MeshTopology = noc.topology
        self.config = config
        n = self.topology.n_tiles
        if len(max_by_tile) != n or len(initial_has) != n:
            raise EngineError(
                f"need per-tile vectors of length {n}, got "
                f"max={len(max_by_tile)}, has={len(initial_has)}"
            )
        self.managed = (
            list(managed_tiles)
            if managed_tiles is not None
            else list(range(n))
        )
        managed_set = set(self.managed)
        for t in range(n):
            if t not in managed_set and (max_by_tile[t] or initial_has[t]):
                raise EngineError(
                    f"tile {t} holds coins or a target but is unmanaged"
                )
        self._rng = rng
        self.stop_on_convergence = stop_on_convergence
        self.coin_listener = coin_listener
        self.pool = sum(initial_has)
        self._in_flight = 0
        self._uid = 0
        self.exchanges_started = 0
        self.exchanges_zero = 0
        self.exchanges_nacked = 0
        self.exchanges_timed_out = 0
        #: Reconciliation ledger: coins inside terminally lost updates
        #: (or confiscated from killed tiles) enter ``coins_lost`` and,
        #: after ``config.reconcile_delay_cycles``, are re-minted back
        #: onto a live tile (``coins_reminted``).  The conservation
        #: invariant is tiles + in_flight + lost_pending == pool.
        self.coins_lost = 0
        self.coins_reminted = 0
        self.reconciliations = 0
        #: Runtime thermal-cap overrides (written via the CSR interface);
        #: takes precedence over the static config caps.
        self.cap_overrides: Dict[int, int] = {}
        #: Every capped tile's cap: the static config caps merged with
        #: ``cap_overrides``, refreshed by :meth:`set_thermal_cap`.
        self._caps: Dict[int, int] = dict(config.thermal_caps or {})
        self.tracker = ErrorTracker(
            initial_has, max_by_tile, self.pool, config.convergence_threshold
        )
        #: The mode and its compute latency are fixed for the engine's
        #: life: resolved once.
        #: A delivered COIN_STATUS goes straight to the mode's handler.
        self._one_way = config.mode is ExchangeMode.ONE_WAY
        self._status_handler: Callable[[Packet], None] = (
            self._serve_one_way if self._one_way else self._collect_four_way
        )
        self._compute_cycles = config.compute_cycles
        #: Caps that depend on the neighbors' holdings are computed per
        #: exchange (``_effective_cap``), the others looked up in ``_caps``.
        self._hotspot = config.hotspot_neighborhood_cap is not None
        self.fsm: Dict[int, _TileFsm] = {}
        # Random-pairing candidates: every managed tile except the tile
        # itself and its torus neighbours (the shift register of Section
        # III-E).  Each tile copies one id-ordered list, so all of them
        # share its int objects instead of holding N copies each.
        pairing_order = sorted(managed_set)
        for tid in self.managed:
            neigh = self._managed_neighbors(tid, managed_set)
            non_neigh = pairing_order.copy()
            for t in [tid, *self.topology.torus_neighbors(tid)]:
                if t in managed_set:
                    non_neigh.remove(t)
            self.fsm[tid] = _TileFsm(
                tid=tid,
                coins=TileCoins(initial_has[tid], max_by_tile[tid]),
                interval=config.refresh_count,
                neighbors=neigh,
                non_neighbors=non_neigh,
                jitter_state=(tid * 2654435761 + 1) & 0x7FFFFFFF,
            )
            self.noc.attach(tid, self._on_packet)
        self.noc.add_loss_listener(self._on_packet_lost)
        self._started = False
        #: Opt-in runtime invariant checker (BLITZCOIN_SANITIZE=1 or
        #: ``config.sanitize``); must attach before any event is
        #: scheduled so every event gets checked.
        self.sanitizer = (
            attach_sanitizer(self) if sanitize_enabled(config) else None
        )
        # An installed fault injector schedules this engine's tile-kill
        # and coin-loss events (after the sanitizer attach, so the fault
        # events themselves are invariant-checked).
        if _faults.injector is not None:
            _faults.injector.bind_engine(self)

    # ------------------------------------------------------------ topology
    def _managed_neighbors(self, tid: int, managed: Set[int]) -> List[int]:
        if self.config.wrap_around:
            candidates = self.topology.torus_neighbors(tid)
        else:
            candidates = self.topology.mesh_neighbors(tid)
        return [t for t in candidates if t in managed]

    # --------------------------------------------------------------- start
    def start(self) -> None:
        """Schedule every tile's first exchange, phase-staggered."""
        if self._started:
            raise EngineError("engine already started")
        self._started = True
        base = self.config.refresh_count
        for k, tid in enumerate(self.managed):
            if self._rng is not None:
                phase = int(self._rng.integers(0, base))
            else:
                phase = (k * max(1, base // max(1, len(self.managed)))) % base
            fsm = self.fsm[tid]
            fsm.next_event = self.sim.schedule(
                phase + 1, lambda t=tid: self._initiate(t)
            )

    # ----------------------------------------------------------- initiation
    def _pick_partner(self, fsm: _TileFsm) -> Optional[int]:
        every = self.config.random_pairing_every
        if every > 0 and fsm.coins.max == 0 and fsm.coins.has > 0:
            # Eager relinquish: a tile holding coins it cannot use pairs
            # far more often, so a lone newly-active tile gathers the
            # pool quickly even when its mesh neighbors are idle
            # (the "relinquishing coins" behaviour of Section III-A).
            every = 1
        elif every > 0 and fsm.coins.max > 0 and fsm.coins.has < fsm.coins.max // 2:
            # Eager request: a starved tile (holding well under its
            # target) probes beyond its neighborhood more often.
            every = max(1, every // 4)
        if (
            every > 0
            and fsm.non_neighbors
            and fsm.exchange_count % every == every - 1
        ):
            partner = fsm.non_neighbors[fsm.rp_index % len(fsm.non_neighbors)]
            fsm.rp_index += 1
            return partner
        if not fsm.neighbors:
            return None
        partner = fsm.neighbors[fsm.rr_index % len(fsm.neighbors)]
        fsm.rr_index += 1
        limit = self.config.partner_retry_limit
        if limit > 0 and fsm.fail_streak:
            # Bounded retry: partners that timed out ``limit`` times in
            # a row are skipped, except on a periodic probe rotation so
            # a revived partner is re-adopted.  Fault-free runs never
            # populate fail_streak, so this costs nothing there.
            probe = fsm.exchange_count % (4 * limit) == 0
            if not probe:
                for _ in range(len(fsm.neighbors) - 1):
                    if fsm.fail_streak.get(partner, 0) < limit:
                        break
                    partner = fsm.neighbors[
                        fsm.rr_index % len(fsm.neighbors)
                    ]
                    fsm.rr_index += 1
        return partner

    def _initiate(self, tid: int) -> None:
        fsm = self.fsm[tid]
        if fsm.dead or fsm.hung:
            # A faulted tile's FSM is powered down: swallow the wakeup.
            fsm.next_event = None
            return
        if fsm.busy:
            # Previous exchange still outstanding; retry one interval later.
            fsm.next_event = self.sim.schedule(
                fsm.interval, lambda: self._initiate(tid)
            )
            return
        fsm.exchange_count += 1
        self.exchanges_started += 1
        if _obs.sink is not None:
            _obs.sink.inc("engine.exchanges_initiated", self.sim.now)
        self._arm_timeout(fsm)
        if self._one_way:
            partner = self._pick_partner(fsm)
            if partner is None:
                self._finish_exchange(tid, moved=False)
                return
            fsm.busy = True
            self._uid += 1
            uid = self._uid
            fsm.pending_uid = uid
            fsm.pending_partner = partner
            if _obs.sink is not None:
                _obs.sink.begin_span(
                    f"xchg:{uid}",
                    "exchange",
                    self.sim.now,
                    cat="engine",
                    track=tid,
                    args={"mode": "1way", "tile": tid, "partner": partner},
                )
            coins = fsm.coins
            self.noc.send(
                Packet(
                    src=tid,
                    dst=partner,
                    msg_type=_COIN_STATUS,
                    payload=_StatusPayload(
                        coins.has, coins.max, uid, False, fsm.zero_streak >= 2
                    ),
                )
            )
        else:
            if not fsm.neighbors:
                self._finish_exchange(tid, moved=False)
                return
            fsm.busy = True
            self._uid += 1
            uid = self._uid
            fsm.pending_uid = uid
            if _obs.sink is not None:
                _obs.sink.begin_span(
                    f"xchg:{uid}",
                    "exchange",
                    self.sim.now,
                    cat="engine",
                    track=tid,
                    args={
                        "mode": "4way",
                        "tile": tid,
                        "neighbors": len(fsm.neighbors),
                    },
                )
            fsm.pending_statuses = {}
            fsm.pending_order = list(fsm.neighbors)
            for nb in fsm.neighbors:
                self.noc.send(
                    Packet(
                        src=tid,
                        dst=nb,
                        msg_type=_COIN_REQUEST,
                        payload=_RequestPayload(uid),
                    )
                )

    def _arm_timeout(self, fsm: _TileFsm) -> None:
        """Watchdog: abandon an exchange whose reply never arrives.

        A lost packet must never wedge the FSM: on expiry the tile
        abandons the exchange and re-enters its refresh loop.  Coins
        inside a lost update are recovered separately, by the
        reconciliation path (:meth:`_on_packet_lost`) when the fabric
        reports the loss, or stay accounted as in-flight when the loss
        happened below the fabric's accounting (a misrouted packet).
        """
        timeout = self.config.exchange_timeout_cycles
        if timeout is None:
            return
        fsm.timeout_uid = self._uid + 1  # the uid the initiation will take
        if fsm.timeout_event is None:
            fsm.timeout_event = self.sim.schedule(
                timeout, lambda: self._expire(fsm)
            )
        else:
            self.sim.rearm(fsm.timeout_event, timeout)

    def _expire(self, fsm: _TileFsm) -> None:
        """The exchange watchdog fired: time the exchange out."""
        uid = fsm.timeout_uid
        if fsm.busy and fsm.pending_uid == uid:
            self.exchanges_timed_out += 1
            if _obs.sink is not None:
                _obs.sink.inc("engine.timeouts", self.sim.now)
                _obs.sink.end_span(
                    f"xchg:{uid}", self.sim.now, args={"outcome": "timeout"}
                )
            fsm.pending_uid = -1
            self._finish_exchange(
                fsm.tid, moved=False, nacked=True, timed_out=True
            )

    def _wake(self, fsm: _TileFsm) -> None:
        """Dynamic-timing speed-up for a tile that just moved coins as a
        *partner*: coins flowing through it means its neighborhood is not
        in equilibrium, so it should probe again soon.  This propagates
        reaction to an activity change as a wavefront instead of waiting
        out each tile's backed-off interval."""
        cfg = self.config
        if not cfg.dynamic_timing:
            return
        # Coins moving through this tile is strong evidence of a nearby
        # imbalance: drop straight back to the base refresh rate (a
        # backed-off tile decrementing by k would let the redistribution
        # wavefront crawl at one hop per max_interval).
        fsm.interval = max(
            cfg.min_interval, min(fsm.interval, cfg.refresh_count)
        )
        if not fsm.busy and fsm.next_event is not None:
            remaining = fsm.next_event.time - self.sim.now
            if remaining > fsm.interval:
                fsm.next_event.cancel()
                fsm.next_event = self.sim.schedule(
                    fsm.interval + self._jitter(fsm, 4),
                    lambda tid=fsm.tid: self._initiate(tid),
                )

    def _effective_cap(self, tid: int) -> Optional[int]:
        """Per-tile cap combined with the neighborhood hotspot limit.

        The neighborhood check uses the tile's cached view of its
        neighbors' holdings (the last status seen from each, recorded
        in ``neighbor_cache`` when a status arrives), which is what the
        hardware can know locally.
        """
        cap = self._caps.get(tid)
        hotspot = self.config.hotspot_neighborhood_cap
        if hotspot is None:
            return cap
        fsm = self.fsm.get(tid)
        if fsm is None:
            return cap
        neighbor_sum = sum(
            fsm.neighbor_cache.get(nb, 0) for nb in fsm.neighbors
        )
        room = max(0, hotspot - neighbor_sum)
        return room if cap is None else min(cap, room)

    @staticmethod
    def _jitter(fsm: _TileFsm, span: int) -> int:
        """Per-tile deterministic pseudo-random jitter in [0, span).

        Models the LFSR-based desynchronization real tiles get for free
        from clock-domain-crossing nondeterminism; without it, identical
        refresh intervals phase-lock colliding exchanges into livelock.
        """
        if span <= 0:
            return 0
        fsm.jitter_state = (fsm.jitter_state * 1103515245 + 12345) & 0x7FFFFFFF
        return fsm.jitter_state % span

    # ------------------------------------------------------------ reception
    def _on_packet(self, packet: Packet) -> None:
        msg_type = packet.msg_type
        if msg_type is _COIN_STATUS:
            self._status_handler(packet)
        elif msg_type is _COIN_UPDATE:
            self._on_update(packet)
        elif msg_type is _COIN_REQUEST:
            self._on_request(packet)

    def _on_request(self, packet: Packet) -> None:
        """4-way: a neighbor asks for our status.

        A tile already engaged in an exchange (as initiator or as a
        locked participant) NACKs: the center aborts its group exchange.
        This is the synchronization the paper says the 4-way technique
        requires (Section III-B).
        """
        fsm = self.fsm[packet.dst]
        req: _RequestPayload = packet.payload
        if fsm.busy or fsm.locked:
            if _obs.sink is not None:
                _obs.sink.inc("engine.nacks_sent", self.sim.now)
                _obs.sink.event(
                    "nack",
                    self.sim.now,
                    cat="engine",
                    track=packet.dst,
                    args={"to": packet.src, "uid": req.exchange_uid},
                )
            payload = _StatusPayload(0, 0, req.exchange_uid, True)
        else:
            fsm.locked = True
            fsm.lock_uid = req.exchange_uid
            payload = _StatusPayload(
                fsm.coins.has, fsm.coins.max, req.exchange_uid
            )
            timeout = self.config.exchange_timeout_cycles
            if timeout is not None:
                # If the center dies or its update is lost, the lock
                # watchdog releases the lock so this tile's FSM cannot
                # be wedged forever.
                if fsm.lock_event is None:
                    fsm.lock_event = self.sim.schedule(
                        timeout, lambda: self._release_lock(fsm)
                    )
                else:
                    self.sim.rearm(fsm.lock_event, timeout)
        self.noc.send(
            Packet(
                src=packet.dst,
                dst=packet.src,
                msg_type=_COIN_STATUS,
                payload=payload,
            )
        )

    def _serve_one_way(self, packet: Packet) -> None:
        """1-way: we are the partner; compute, apply our delta, reply.

        A tile already engaged in another exchange NACKs so that no coin
        update is ever computed against a stale snapshot: both endpoints
        of an exchange are frozen for its (few-cycle) duration.
        """
        src = packet.src
        dst = packet.dst
        me = self.fsm[dst]
        status: _StatusPayload = packet.payload
        if me.busy or me.locked:
            if _obs.sink is not None:
                _obs.sink.inc("engine.nacks_sent", self.sim.now)
                _obs.sink.event(
                    "nack",
                    self.sim.now,
                    cat="engine",
                    track=dst,
                    args={"to": src, "uid": status.exchange_uid},
                )
            self.noc.send(
                Packet(
                    src=dst,
                    dst=src,
                    msg_type=_COIN_UPDATE,
                    payload=_UpdatePayload(0, False, status.exchange_uid, True),
                )
            )
            return
        me.locked = True
        if _obs.sink is not None:
            _obs.sink.begin_span(
                f"serve:{status.exchange_uid}:{dst}",
                "serve",
                self.sim.now,
                cat="engine",
                track=dst,
                parent_id=f"xchg:{status.exchange_uid}",
                args={"initiator": src},
            )
        if src in me.neighbors:
            me.neighbor_cache[src] = status.has

        def apply_and_reply() -> None:
            if me.dead or me.hung:
                # Killed or hung during the compute window: no reply is
                # ever sent; the initiator's watchdog recovers it.
                me.locked = False
                return
            caps = self._caps
            if self._hotspot:
                cap_i = self._effective_cap(src)
                cap_j = self._effective_cap(dst)
            elif caps:
                cap_i = caps.get(src)
                cap_j = caps.get(dst)
            else:
                cap_i = cap_j = None
            coins = me.coins
            delta_initiator, delta_me = pair_deltas(
                status.has,
                status.max,
                coins.has,
                coins.max,
                cap_i,
                cap_j,
                status.shake,
            )
            self._apply_delta(dst, delta_me)
            me.locked = False
            # The deltas sum to zero, so ours is non-zero iff coins moved.
            moved = delta_me != 0
            if moved:
                self._wake(me)
            if _obs.sink is not None:
                _obs.sink.end_span(
                    f"serve:{status.exchange_uid}:{dst}",
                    self.sim.now,
                    args={"delta": delta_me},
                )
            self._in_flight += delta_initiator
            self.noc.send(
                Packet(
                    src=dst,
                    dst=src,
                    msg_type=_COIN_UPDATE,
                    payload=_UpdatePayload(
                        delta_initiator, moved, status.exchange_uid
                    ),
                )
            )

        self.sim.schedule(self._compute_cycles, apply_and_reply)

    def _collect_four_way(self, packet: Packet) -> None:
        """4-way: a neighbor's status arrived at the requesting center."""
        center = self.fsm[packet.dst]
        status: _StatusPayload = packet.payload
        if status.exchange_uid != center.pending_uid:
            return  # stale reply from an abandoned exchange
        statuses = center.pending_statuses
        statuses[packet.src] = status
        # ``pending_order`` is replaced, never mutated, so no copy.
        order = center.pending_order
        if len(statuses) < len(order):
            return
        uid = center.pending_uid
        granted = [nb for nb in order if not statuses[nb].nack]
        if len(granted) < len(order):
            # Abort: unlock the neighbors that did grant us their status.
            for nb in granted:
                self.noc.send(
                    Packet(
                        src=center.tid,
                        dst=nb,
                        msg_type=_COIN_UPDATE,
                        payload=_UpdatePayload(0, False, uid, True),
                    )
                )
            self._finish_exchange(center.tid, moved=False, nacked=True)
            return
        coins = center.coins
        has = [coins.has]
        maxes = [coins.max]
        cache = center.neighbor_cache
        for nb in order:
            st = statuses[nb]
            cache[nb] = st.has
            has.append(st.has)
            maxes.append(st.max)
        caps: Optional[List[Optional[int]]] = None
        if self._hotspot:
            caps = [self._effective_cap(center.tid)] + [
                self._effective_cap(nb) for nb in order
            ]
        elif self._caps:
            get = self._caps.get
            caps = [get(center.tid)] + [get(nb) for nb in order]
        deltas = group_deltas(has, maxes, caps)
        moved = any(deltas)

        def apply_and_update() -> None:
            if center.dead or center.hung:
                # Killed mid-exchange: the group update is never sent;
                # participants' lock watchdogs release them.
                return
            self._apply_delta(center.tid, deltas[0])
            for nb, delta in zip(order, deltas[1:]):
                self._in_flight += delta
                self.noc.send(
                    Packet(
                        src=center.tid,
                        dst=nb,
                        msg_type=_COIN_UPDATE,
                        payload=_UpdatePayload(delta, moved, uid),
                    )
                )
            self._finish_exchange(center.tid, moved=moved)

        self.sim.schedule(self._compute_cycles, apply_and_update)

    def _on_update(self, packet: Packet) -> None:
        update: _UpdatePayload = packet.payload
        fsm = self.fsm[packet.dst]
        if fsm.locked and update.exchange_uid == fsm.lock_uid:
            # We were a locked 4-way participant; the center's update
            # (possibly a zero-delta abort) releases us.
            if update.delta:
                self._in_flight -= update.delta
                self._apply_delta(packet.dst, update.delta)
            self._release_lock(fsm)
            if update.delta:
                self._wake(fsm)
            return
        # NACKs and zero-delta replies move no coins.
        if update.delta:
            self._in_flight -= update.delta
            self._apply_delta(packet.dst, update.delta)
        if update.exchange_uid == fsm.pending_uid and fsm.busy:
            self._finish_exchange(
                packet.dst, moved=update.moved, nacked=update.nack
            )

    # ------------------------------------------------------------- plumbing
    def _apply_delta(self, tid: int, delta: int) -> None:
        if delta == 0:
            return
        fsm = self.fsm[tid]
        fsm.coins.has += delta
        if abs(fsm.coins.has) > 2 * self.pool + 64:
            raise EngineError(
                f"tile {tid} coin count {fsm.coins.has} diverged "
                f"(pool={self.pool}); protocol invariant broken"
            )
        self.tracker.update_has(tid, fsm.coins.has, self.sim.now)
        if _obs.sink is not None:
            _obs.sink.inc("engine.coin_deltas", self.sim.now)
            _obs.sink.inc("engine.coins_moved", self.sim.now, abs(delta))
            _obs.sink.event(
                "apply",
                self.sim.now,
                cat="engine",
                track=tid,
                args={"delta": delta, "has": fsm.coins.has},
            )
        if self.coin_listener is not None:
            self.coin_listener(tid, fsm.coins.has)
        if (
            self.stop_on_convergence
            and self.tracker.converged_at is not None
        ):
            self.sim.stop()

    def _finish_exchange(
        self,
        tid: int,
        moved: bool,
        nacked: bool = False,
        timed_out: bool = False,
    ) -> None:
        fsm = self.fsm[tid]
        if fsm.dead or fsm.hung:
            # A faulted tile never re-enters the refresh loop.
            fsm.busy = False
            if fsm.timeout_event is not None:
                fsm.timeout_event.disarm()
            return
        if _obs.sink is not None:
            outcome = (
                "nacked" if nacked else ("moved" if moved else "zero")
            )
            _obs.sink.inc(
                "engine.exchanges_finished", self.sim.now, outcome=outcome
            )
            if fsm.busy and fsm.pending_uid >= 0:
                # The empty-initiate path never opened a span (busy was
                # never set) and the timeout path already closed it.
                _obs.sink.end_span(
                    f"xchg:{fsm.pending_uid}",
                    self.sim.now,
                    args={"outcome": outcome},
                )
        fsm.busy = False
        if fsm.timeout_event is not None:
            fsm.timeout_event.disarm()
        cfg = self.config
        partner = fsm.pending_partner
        fsm.pending_partner = -1
        if partner >= 0:
            if timed_out:
                streak = fsm.fail_streak.get(partner, 0) + 1
                fsm.fail_streak[partner] = streak
                if cfg.dynamic_timing and streak >= 2:
                    # Repeated silence from the same partner: likely a
                    # dead tile, not a collision — back off toward it.
                    fsm.interval = min(
                        cfg.max_interval,
                        int(fsm.interval * cfg.backoff_factor),
                    )
            elif fsm.fail_streak:
                # Any completed exchange (even a NACK) proves the
                # partner is alive again.
                fsm.fail_streak.pop(partner, None)
        jitter_span = max(2, fsm.interval // 4)
        if nacked:
            # Collision, not a converged neighborhood: retry at the same
            # rate, with extra jitter to break the collision phase.
            self.exchanges_nacked += 1
            jitter_span = max(2, fsm.interval)
        else:
            # A movement on a shake-armed exchange means this tile still
            # carries a quantization residue: it must keep working at
            # the base rate, not at its backed-off interval, or the
            # endgame residue clean-up crawls.
            shake_hit = moved and fsm.zero_streak >= 2
            # Track consecutive zero-move exchanges; a long streak arms
            # the residue "shake" on this tile's next status messages.
            if moved:
                fsm.zero_streak = 0
            else:
                fsm.zero_streak += 1
            if cfg.dynamic_timing:
                if moved:
                    if shake_hit:
                        fsm.interval = min(fsm.interval, cfg.refresh_count)
                    fsm.interval = max(
                        cfg.min_interval, fsm.interval - cfg.speedup_step
                    )
                else:
                    fsm.interval = min(
                        cfg.max_interval,
                        int(fsm.interval * cfg.backoff_factor),
                    )
                    self.exchanges_zero += 1
            elif not moved:
                self.exchanges_zero += 1
        fsm.next_event = self.sim.schedule(
            fsm.interval + self._jitter(fsm, jitter_span),
            lambda: self._initiate(tid),
        )

    # ------------------------------------------------------------ external
    def set_max(self, tid: int, new_max: int) -> None:
        """Activity change: retarget tile ``tid`` (start/end of execution).

        Resets the tile's dynamic interval (NoC cycles between exchange
        initiations) so it reacts immediately, and
        kicks its next initiation, mirroring the hardware FSM engaging on
        an activity edge.
        """
        if tid not in self.fsm:
            raise EngineError(f"tile {tid} is not managed by BlitzCoin")
        fsm = self.fsm[tid]
        if fsm.dead:
            # The tile's registers are gone; remember the target so a
            # revive restores the latest activity state.
            fsm.saved_max = new_max
            return
        fsm.coins.max = new_max
        self.tracker.update_max(tid, new_max, self.sim.now)
        fsm.interval = self.config.min_interval
        if not fsm.busy and self._started:
            if fsm.next_event is not None:
                fsm.next_event.cancel()
            fsm.next_event = self.sim.schedule(1, lambda: self._initiate(tid))

    # ---------------------------------------------------------- fault model
    def _suspend(self, fsm: _TileFsm) -> None:
        """Cancel a faulted tile's pending activity and clear its FSM."""
        if fsm.next_event is not None:
            fsm.next_event.cancel()
            fsm.next_event = None
        if fsm.timeout_event is not None:
            fsm.timeout_event.disarm()
        fsm.busy = False
        self._release_lock(fsm)
        fsm.pending_uid = -1
        fsm.pending_partner = -1
        fsm.pending_statuses = {}
        fsm.pending_order = []

    @staticmethod
    def _release_lock(fsm: _TileFsm) -> None:
        """Unlock a 4-way participant and disarm its lock watchdog."""
        fsm.locked = False
        fsm.lock_uid = -1
        if fsm.lock_event is not None:
            fsm.lock_event.disarm()

    def kill_tile(self, tid: int) -> None:
        """Fail tile ``tid``: registers lost, handler detached.

        The coins it held are confiscated into the reconciliation
        ledger and re-minted onto a live tile after the configured
        delay (in NoC cycles), so a tile death shrinks the usable
        budget only transiently.  In-flight updates addressed to the
        dead tile become ``dead-tile`` losses and reconcile the same
        way.
        """
        if tid not in self.fsm:
            raise EngineError(f"tile {tid} is not managed by BlitzCoin")
        fsm = self.fsm[tid]
        if fsm.dead:
            return
        fsm.saved_max = fsm.coins.max
        self.set_max(tid, 0)
        held = fsm.coins.has
        self._suspend(fsm)
        fsm.dead = True
        fsm.hung = False
        self.noc.detach(tid)
        self.noc.mark_dead(tid)
        if _obs.sink is not None:
            _obs.sink.inc("engine.tiles_killed", self.sim.now)
            _obs.sink.event(
                "fault.kill",
                self.sim.now,
                cat="fault",
                track=tid,
                args={"held": held},
            )
        if held != 0:
            self._apply_delta(tid, -held)
            self._book_loss(held, prefer=None)

    def hang_tile(self, tid: int) -> None:
        """Wedge tile ``tid``: it stops responding but keeps its coins.

        Partners recover via exchange timeouts and suspend the hung
        partner from rotation; its held coins stay counted on-tile
        (the registers still exist), so no reconciliation fires.
        """
        if tid not in self.fsm:
            raise EngineError(f"tile {tid} is not managed by BlitzCoin")
        fsm = self.fsm[tid]
        if fsm.dead or fsm.hung:
            return
        self._suspend(fsm)
        fsm.hung = True
        self.noc.detach(tid)
        self.noc.mark_dead(tid)
        if _obs.sink is not None:
            _obs.sink.inc("engine.tiles_hung", self.sim.now)
            _obs.sink.event(
                "fault.hang", self.sim.now, cat="fault", track=tid
            )

    def revive_tile(self, tid: int) -> None:
        """Bring a killed or hung tile back into the protocol."""
        if tid not in self.fsm:
            raise EngineError(f"tile {tid} is not managed by BlitzCoin")
        fsm = self.fsm[tid]
        if not (fsm.dead or fsm.hung):
            return
        was_dead = fsm.dead
        fsm.dead = False
        fsm.hung = False
        self.noc.attach(tid, self._on_packet)
        self.noc.mark_alive(tid)
        if _obs.sink is not None:
            _obs.sink.inc("engine.tiles_revived", self.sim.now)
            _obs.sink.event(
                "fault.revive", self.sim.now, cat="fault", track=tid
            )
        if was_dead:
            # Registers come back zeroed; restore the saved target,
            # which also kicks the first post-revival exchange.
            self.set_max(tid, fsm.saved_max)
        elif self._started and fsm.next_event is None:
            fsm.next_event = self.sim.schedule(
                1, lambda: self._initiate(tid)
            )

    def lose_coins(self, tid: int, coins: int) -> None:
        """Erase up to ``coins`` coins held by ``tid`` (register upset).

        The loss enters the reconciliation ledger and is re-minted on
        the same tile after ``reconcile_delay_cycles`` NoC cycles,
        modeling detection by the hardware's credit-ledger scan.
        """
        if tid not in self.fsm:
            raise EngineError(f"tile {tid} is not managed by BlitzCoin")
        if coins < 1:
            raise EngineError(f"must lose >= 1 coin, got {coins}")
        fsm = self.fsm[tid]
        if fsm.dead:
            return
        actual = min(coins, fsm.coins.has)
        if actual < 1:
            return
        self._apply_delta(tid, -actual)
        self._book_loss(actual, prefer=tid)

    def _on_packet_lost(self, packet: Packet, reason: str) -> None:
        """Fabric loss listener: reconcile coins inside lost updates.

        Only COIN_UPDATE packets carry coins; their delta was moved
        into ``_in_flight`` when the update was sent, so a terminal
        loss transfers it from in-flight to the reconciliation ledger.
        The delta is later re-applied at the intended recipient — a
        negative delta burns surplus the same way a positive one
        re-mints a deficit.
        """
        if packet.msg_type is not _COIN_UPDATE:
            return
        if packet.dst not in self.fsm:
            return
        delta = packet.payload.delta
        if delta == 0:
            return
        self._in_flight -= delta
        self._book_loss(delta, prefer=packet.dst)

    def _book_loss(self, delta: int, prefer: Optional[int]) -> None:
        self.coins_lost += delta
        if _obs.sink is not None:
            _obs.sink.inc(
                "engine.coins_lost", self.sim.now, abs(delta)
            )
        self.sim.schedule(
            self.config.reconcile_delay_cycles,
            lambda d=delta, p=prefer: self._reconcile(d, p),
        )

    def _reconcile(self, delta: int, prefer: Optional[int]) -> None:
        """Re-mint a booked loss onto a live tile.

        Prefers the intended recipient; falls back to the lowest-id
        live managed tile.  With no live tile at all, the re-mint
        retries after another reconcile delay.
        """
        target: Optional[int] = None
        if prefer is not None:
            fsm = self.fsm.get(prefer)
            if fsm is not None and not fsm.dead and not fsm.hung:
                target = prefer
        if target is None:
            for tid in self.managed:
                fsm = self.fsm[tid]
                if not fsm.dead and not fsm.hung:
                    target = tid
                    break
        if target is None:
            self.sim.schedule(
                max(1, self.config.reconcile_delay_cycles),
                lambda d=delta, p=prefer: self._reconcile(d, p),
            )
            return
        self.coins_reminted += delta
        self.reconciliations += 1
        if _obs.sink is not None:
            _obs.sink.inc(
                "engine.coins_reminted", self.sim.now, abs(delta)
            )
            _obs.sink.event(
                "fault.reconcile",
                self.sim.now,
                cat="fault",
                track=target,
                args={"delta": delta},
            )
        self._apply_delta(target, delta)

    @property
    def lost_pending(self) -> int:
        """Coins booked as lost but not yet re-minted."""
        return self.coins_lost - self.coins_reminted

    def set_thermal_cap(self, tid: int, cap: Optional[int]) -> None:
        """Set (or clear, with None) a runtime thermal cap for a tile.

        This is the CSR-visible control of Section IV-B; it overrides
        the statically configured cap for that tile.
        """
        if tid not in self.fsm:
            raise EngineError(f"tile {tid} is not managed by BlitzCoin")
        if cap is None:
            self.cap_overrides.pop(tid, None)
        elif cap < 0:
            raise EngineError(f"thermal cap must be >= 0, got {cap}")
        else:
            self.cap_overrides[tid] = cap
        merged = self.cap_overrides.get(tid, self.config.cap_for(tid))
        if merged is None:
            self._caps.pop(tid, None)
        else:
            self._caps[tid] = merged

    def coins(self, tid: int) -> TileCoins:
        """Live coin registers of tile ``tid``."""
        return self.fsm[tid].coins

    def snapshot_has(self) -> List[int]:
        """Current coin counts of all tiles in topology order."""
        n = self.topology.n_tiles
        return [
            self.fsm[t].coins.has if t in self.fsm else 0 for t in range(n)
        ]

    def snapshot_max(self) -> List[int]:
        """Current targets of all tiles in topology order."""
        n = self.topology.n_tiles
        return [
            self.fsm[t].coins.max if t in self.fsm else 0 for t in range(n)
        ]

    def check_conservation(self) -> None:
        """Assert the fixed-pool invariant.

        Coins on tiles plus coins in flight plus losses awaiting
        reconciliation must equal the pool; fault-free runs have
        ``lost_pending == 0`` and this reduces to the paper's
        tiles + in-flight == pool.
        """
        on_tiles = sum(f.coins.has for f in self.fsm.values())
        if on_tiles + self._in_flight + self.lost_pending != self.pool:
            raise EngineError(
                f"coin conservation violated: tiles={on_tiles} "
                f"in_flight={self._in_flight} "
                f"lost_pending={self.lost_pending} pool={self.pool}"
            )

    @property
    def coin_packets(self) -> int:
        """Coin-exchange packets injected so far."""
        return self.noc.stats.coin_packets

    def release(self) -> None:
        """Take a finished engine apart so reference counting frees it.

        An engine is a cyclic graph: the fabric holds its handlers, the
        simulator its queued events, and each tile its timers, whose
        callbacks hold the engine.  This drains the simulator, detaches
        the engine from the fabric and drops every reference back to
        it.  Counters, coin registers and the tracker stay readable; the
        engine cannot run again.
        """
        self.sim.drain()
        self.noc.remove_loss_listener(self._on_packet_lost)
        for tid, fsm in self.fsm.items():
            self.noc.detach(tid)
            fsm.next_event = fsm.timeout_event = fsm.lock_event = None
        del self._status_handler

    def run_until_converged(self, max_cycles: int) -> Optional[int]:
        """Run until the tracker stamps convergence (or ``max_cycles``).

        Returns the convergence time in cycles, or None on timeout.
        """
        was = self.stop_on_convergence
        self.stop_on_convergence = True
        try:
            deadline = self.sim.now + max_cycles
            while self.sim.now < deadline and not self.tracker.is_converged:
                self.sim.run(until=deadline)
                if self.tracker.is_converged:
                    break
                if not self.sim.pending:
                    break
        finally:
            self.stop_on_convergence = was
        return self.tracker.converged_at
