"""NoC packets, planes, and message types.

The ESP NoC the paper integrates with has six planes; power-management
traffic rides Plane 5 (memory-mapped registers + interrupts), to which the
paper adds a new coin-exchange message class (Section IV-B).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional


class Plane(enum.IntEnum):
    """The six NoC planes of the ESP architecture (Section IV-B)."""

    COHERENCE_REQ = 0
    COHERENCE_FWD = 1
    COHERENCE_RSP = 2
    DMA_TO_MEM = 3
    DMA_FROM_MEM = 4
    MMIO_IRQ = 5  # registers, interrupts, and the new coin messages


class MessageType(enum.Enum):
    """Message classes used by the power-management protocols."""

    # BlitzCoin 1-way / 4-way exchange (Fig. 2)
    COIN_REQUEST = "coin_request"  # 4-way only: ask neighbor for status
    COIN_STATUS = "coin_status"  # reply/push of (has, max)
    COIN_UPDATE = "coin_update"  # new coin count for the receiver

    # Centralized baselines (C-RR, BC-C)
    PM_POLL = "pm_poll"  # controller asks a tile for its status
    PM_STATUS = "pm_status"  # tile's reply to the controller
    PM_SET = "pm_set"  # controller pushes a V/F or coin setting
    PM_NOTIFY = "pm_notify"  # tile notifies controller of activity change

    # TokenSmart ring
    TOKEN_POOL = "token_pool"  # the circulating pool of tokens

    # Generic traffic (background load / register access)
    REGISTER_ACCESS = "register_access"
    DMA = "dma"

    @property
    def is_coin_message(self) -> bool:
        """True for the three BlitzCoin exchange message classes."""
        return self in (
            MessageType.COIN_REQUEST,
            MessageType.COIN_STATUS,
            MessageType.COIN_UPDATE,
        )


_next_packet_id = itertools.count().__next__


@dataclass(init=False)
class Packet:
    """One NoC message.

    ``size_flits`` models serialization latency in the cycle-level NoC:
    a packet occupies each link for ``size_flits`` cycles.  All
    power-management messages are single-flit (a coin count and a max fit
    in one 64-bit flit), matching the compact hardware encoding.

    The constructor takes only what a sender sets.  The fields the
    fabric stamps on the way (``injected_at``, ``delivered_at``,
    ``corrupted``, ``hops``) and ``duplicate_of``, unless given, keep
    their class-level defaults until something assigns them, so a
    packet costs one short ``__init__`` frame; ``repr`` and ``==``
    still cover every field.
    """

    src: int
    dst: int
    msg_type: MessageType
    plane: Plane = Plane.MMIO_IRQ
    payload: Any = None
    size_flits: int = 1
    injected_at: Optional[int] = None
    delivered_at: Optional[int] = None
    #: Set by fault injection: a corrupted packet still traverses the
    #: fabric but fails its (modeled) CRC at the destination NI and is
    #: discarded there instead of delivered.
    corrupted: bool = False
    #: Set on injected duplicate copies: the uid of the original packet.
    #: The destination NI's sequence filter discards duplicates, so a
    #: duplicate only ever adds fabric traffic, never a double delivery.
    duplicate_of: Optional[int] = None
    #: Mesh hop count from ``src`` to ``dst``, set by
    #: :meth:`~repro.noc.fabric.NocFabric.send` and read back by the
    #: fabric for transport latency and delivery accounting.
    hops: int = 0
    #: Process-wide creation order, assigned by the constructor.
    uid: int = field(init=False)

    def __init__(
        self,
        src: int,
        dst: int,
        msg_type: MessageType,
        plane: Plane = Plane.MMIO_IRQ,
        payload: Any = None,
        size_flits: int = 1,
        duplicate_of: Optional[int] = None,
    ) -> None:
        if size_flits < 1:
            raise ValueError(f"packet must have >=1 flit, got {size_flits}")
        if src < 0 or dst < 0:
            raise ValueError(f"invalid endpoints ({src} -> {dst})")
        self.src = src
        self.dst = dst
        self.msg_type = msg_type
        self.plane = plane
        self.payload = payload
        self.size_flits = size_flits
        if duplicate_of is not None:
            self.duplicate_of = duplicate_of
        self.uid = _next_packet_id()


@dataclass
class PacketStats:
    """Aggregate packet accounting for one simulation.

    The fabric updates the injection and delivery totals inline, in
    :meth:`~repro.noc.fabric.NocFabric.send` and ``_deliver``.
    """

    injected: int = 0
    delivered: int = 0
    total_hops: int = 0
    total_latency: int = 0
    by_type: Dict[str, int] = field(default_factory=dict)
    #: Terminal discards (dropped, corrupted, duplicate-filtered,
    #: dead destination) keyed by reason.
    discards_by_reason: Dict[str, int] = field(default_factory=dict)

    def on_discard(self, packet: Packet, reason: str) -> None:
        """A packet left the fabric without being delivered."""
        self.discards_by_reason[reason] = (
            self.discards_by_reason.get(reason, 0) + 1
        )

    @property
    def discarded(self) -> int:
        """Total packets that terminally left the fabric undelivered."""
        return sum(self.discards_by_reason.values())

    @property
    def mean_latency(self) -> float:
        """Mean delivery latency in cycles (0.0 when nothing delivered)."""
        return self.total_latency / self.delivered if self.delivered else 0.0

    @property
    def coin_packets(self) -> int:
        """Count of BlitzCoin exchange packets injected."""
        return sum(
            self.by_type.get(t.value, 0)
            for t in MessageType
            if t.is_coin_message
        )

    def publish(self, registry: Any, time: int) -> None:
        """Snapshot these totals into a metrics registry at cycle ``time``.

        Uses gauges (not counters) because the stats object already holds
        running totals; re-publishing must overwrite, never re-add.  The
        per-kind counts land on ``noc.stats.packets{kind=...}``.
        """
        registry.set_gauge("noc.stats.injected", time, self.injected)
        registry.set_gauge("noc.stats.delivered", time, self.delivered)
        registry.set_gauge("noc.stats.total_hops", time, self.total_hops)
        registry.set_gauge(
            "noc.stats.mean_latency_cycles", time, self.mean_latency
        )
        registry.set_gauge("noc.stats.coin_packets", time, self.coin_packets)
        registry.set_gauge("noc.stats.discarded", time, self.discarded)
        for kind in sorted(self.by_type):
            registry.set_gauge(
                "noc.stats.packets", time, self.by_type[kind], kind=kind
            )
        for reason in sorted(self.discards_by_reason):
            registry.set_gauge(
                "noc.stats.discards",
                time,
                self.discards_by_reason[reason],
                reason=reason,
            )
