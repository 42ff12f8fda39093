"""Common interface implemented by both NoC fidelities."""

from __future__ import annotations

import abc
from typing import Callable, Dict, List

from repro.faults import runtime as _faults
from repro.noc.packet import Packet, PacketStats
from repro.noc.topology import MeshTopology
from repro.obs import runtime as _obs
from repro.sim.kernel import Simulator

#: A tile-side callback invoked when a packet arrives at its destination.
DeliveryHandler = Callable[[Packet], None]

#: A callback invoked when a packet terminally leaves the fabric without
#: being delivered: ``listener(packet, reason)``.  Reasons: ``drop``
#: (eaten in transit), ``corrupt`` (failed CRC at the destination NI),
#: ``dead-tile`` (destination handler detached).  Duplicate-filter
#: discards do *not* notify — the original delivery already happened or
#: will happen, so nothing was lost.
LossListener = Callable[[Packet, str], None]


class NocFabric(abc.ABC):
    """Abstract packet transport over a mesh.

    Tiles register a delivery handler for their id; :meth:`send` injects a
    packet which will be delivered (handler invoked) after the fabric's
    latency model elapses.

    Fault injection hooks in at two points, both behind the
    :data:`repro.faults.runtime.injector` fast flag: :meth:`send`
    consults the injector for a per-packet verdict, and :meth:`_deliver`
    discards corrupted or duplicate-filtered packets at the destination
    NI.  Components that must account for undelivered packets (the
    engine's coin reconciliation, a controller's poll watchdog) register
    a :data:`LossListener`.
    """

    def __init__(self, sim: Simulator, topology: MeshTopology) -> None:
        self.sim = sim
        self.topology = topology
        self.stats = PacketStats()
        self._handlers: Dict[int, DeliveryHandler] = {}
        self._loss_listeners: List[LossListener] = []
        self._dead_tiles: Dict[int, bool] = {}

    def attach(self, tid: int, handler: DeliveryHandler) -> None:
        """Register the delivery handler for tile ``tid``."""
        self.topology._check(tid)
        self._handlers[tid] = handler

    def detach(self, tid: int) -> None:
        """Remove the handler for tile ``tid`` (late packets are dropped)."""
        self._handlers.pop(tid, None)

    def mark_dead(self, tid: int) -> None:
        """Flag ``tid`` as failed: arriving packets become terminal
        ``dead-tile`` losses (notifying loss listeners) instead of the
        legacy deliver-to-nobody accounting for never-attached tiles."""
        self._dead_tiles[tid] = True

    def mark_alive(self, tid: int) -> None:
        """Clear a tile's dead flag (revival)."""
        self._dead_tiles.pop(tid, None)

    def add_loss_listener(self, listener: LossListener) -> None:
        """Register a callback for terminally lost packets."""
        self._loss_listeners.append(listener)

    def remove_loss_listener(self, listener: LossListener) -> None:
        """Unregister a callback added by :meth:`add_loss_listener`."""
        self._loss_listeners.remove(listener)

    def send(self, packet: Packet) -> None:
        """Inject ``packet`` at its source tile.

        Stamps the injection cycle and the packet's mesh hop count,
        which transport and delivery read back.  The hop-count lookup
        raises :class:`~repro.noc.topology.TopologyError` for an
        endpoint outside the grid, before any accounting.
        """
        packet.hops = self.topology.hop_distance(packet.src, packet.dst)
        now = self.sim.now
        packet.injected_at = now
        stats = self.stats
        stats.injected += 1
        # ``_value_`` is the member's value, read without the
        # ``Enum.value`` descriptor call.
        kind = packet.msg_type._value_
        by_type = stats.by_type
        by_type[kind] = by_type.get(kind, 0) + 1
        if _obs.sink is not None:
            _obs.sink.inc("noc.packets", now, kind=kind)
        if _faults.injector is not None and packet.duplicate_of is None:
            verdict = _faults.injector.decide(packet)
            if verdict is not None:
                self._apply_fault(packet, verdict)
                return
        self._transport(packet)

    def _apply_fault(self, packet: Packet, verdict) -> None:
        """Act on an injector verdict for a just-injected packet."""
        kind, extra = verdict
        if kind == "drop":
            self._drop(packet, "drop")
        elif kind == "corrupt":
            packet.corrupted = True
            self._transport(packet)
        elif kind == "duplicate":
            self._transport(packet)
            # The duplicate copy re-enters send() for full accounting but
            # is exempt from further faulting (duplicate_of is set) and
            # will be sequence-filtered at the destination NI.
            self.send(
                Packet(
                    src=packet.src,
                    dst=packet.dst,
                    msg_type=packet.msg_type,
                    plane=packet.plane,
                    payload=packet.payload,
                    size_flits=packet.size_flits,
                    duplicate_of=packet.uid,
                )
            )
        elif kind == "delay":
            self.sim.schedule(
                extra, lambda p=packet: self._transport(p)
            )
        else:  # pragma: no cover - injector contract
            raise ValueError(f"unknown fault verdict {kind!r}")

    def _drop(self, packet: Packet, reason: str) -> None:
        """Terminally discard a packet that never reaches its NI."""
        self.stats.on_discard(packet, reason)
        if _obs.sink is not None:
            _obs.sink.inc(
                "noc.discards", self.sim.now, reason=reason
            )
        self._notify_loss(packet, reason)

    def _notify_loss(self, packet: Packet, reason: str) -> None:
        for listener in self._loss_listeners:
            listener(packet, reason)

    @abc.abstractmethod
    def _transport(self, packet: Packet) -> None:
        """Fidelity-specific movement from source to destination."""

    def _deliver(self, packet: Packet) -> None:
        if packet.corrupted:
            # Failed CRC at the destination NI: the payload is garbage,
            # so the NI discards rather than delivering corrupt state
            # into a coin register.
            self.stats.on_discard(packet, "corrupt")
            if _obs.sink is not None:
                _obs.sink.inc(
                    "noc.discards", self.sim.now, reason="corrupt"
                )
            self._notify_loss(packet, "corrupt")
            return
        if packet.duplicate_of is not None:
            # Sequence filter: the original delivery stands; the copy
            # only ever consumed fabric bandwidth.
            self.stats.on_discard(packet, "duplicate")
            if _obs.sink is not None:
                _obs.sink.inc(
                    "noc.discards", self.sim.now, reason="duplicate"
                )
            return
        handler = self._handlers.get(packet.dst)
        if handler is None and packet.dst in self._dead_tiles:
            self.stats.on_discard(packet, "dead-tile")
            if _obs.sink is not None:
                _obs.sink.inc(
                    "noc.discards", self.sim.now, reason="dead-tile"
                )
            self._notify_loss(packet, "dead-tile")
            return
        now = self.sim.now
        packet.delivered_at = now
        # send() stamped injected_at before the packet entered transport.
        injected: int = packet.injected_at  # type: ignore[assignment]
        hops = packet.hops
        stats = self.stats
        stats.delivered += 1
        stats.total_hops += hops
        stats.total_latency += now - injected
        if _obs.sink is not None:
            exchange_uid = getattr(packet.payload, "exchange_uid", None)
            # Named by this fabric's delivery count, not the process-wide
            # ``Packet.uid``, so a run's trace is the same in any process.
            _obs.sink.complete_span(
                f"pkt:{stats.delivered}",
                packet.msg_type.value,
                injected,
                now,
                cat="noc",
                track=packet.src,
                parent_id=(
                    f"xchg:{exchange_uid}"
                    if exchange_uid is not None
                    else None
                ),
                args={
                    "src": packet.src,
                    "dst": packet.dst,
                    "hops": hops,
                    "flits": packet.size_flits,
                },
            )
            _obs.sink.observe("noc.hop_histogram", now, hops)
            _obs.sink.observe("noc.latency_cycles", now, now - injected)
        if handler is not None:
            handler(packet)
