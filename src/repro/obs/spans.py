"""Structured span/event records keyed to simulation cycles.

A *span* is an interval of simulated time on a track (a subsystem
category plus an optional tile id): an exchange lifecycle, a packet
flight, a task execution.  Spans may reference a parent span id, which
the Chrome-trace exporter renders as flow arrows (initiate -> request
-> status -> update -> apply).  An *instant event* is a point
occurrence; a *sample* is one point of a numeric counter track (power,
frequency).

All timestamps are integer simulation cycles.  The buffer is pure
storage: appending never schedules events or reads wall-clock time, so
recording cannot perturb a run (blitzlint D1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

__all__ = [
    "InstantEvent",
    "Sample",
    "Span",
    "TraceBuffer",
]

Number = Union[int, float]


@dataclass
class Span:
    """One interval on a track; ``end`` is None while still open."""

    span_id: str
    name: str
    cat: str
    track: Optional[int]
    begin: int
    end: Optional[int] = None
    args: Dict[str, object] = field(default_factory=dict)
    parent_id: Optional[str] = None
    epoch: str = ""

    @property
    def duration(self) -> Optional[int]:
        """Span length in cycles, or None while the span is open."""
        if self.end is None:
            return None
        return self.end - self.begin


@dataclass
class InstantEvent:
    """A point occurrence on a track."""

    name: str
    cat: str
    track: Optional[int]
    time: int
    args: Dict[str, object] = field(default_factory=dict)
    epoch: str = ""


@dataclass
class Sample:
    """One point of a numeric counter track (rendered as ph="C")."""

    name: str
    cat: str
    track: Optional[int]
    time: int
    value: float
    epoch: str = ""


class TraceBuffer:
    """Append-only storage for spans, instant events, and samples.

    Span ids are scoped per epoch so successive trials (each restarting
    simulated time and uid counters at zero) never collide.  Ending a
    span that was never begun is a silent no-op: instrumentation may be
    enabled mid-run, after some spans already began.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.events: List[InstantEvent] = []
        self.samples: List[Sample] = []
        self._open: Dict[Tuple[str, str], Span] = {}
        self.epoch: str = ""
        self.max_time: int = 0

    def _saw(self, time: int) -> None:
        if time > self.max_time:
            self.max_time = time

    def set_epoch(self, label: str) -> None:
        """Start a new epoch (e.g. a new trial); open spans stay open."""
        self.epoch = label

    # ---------------------------------------------------------------- spans
    def begin_span(
        self,
        span_id: str,
        name: str,
        time: int,
        *,
        cat: str = "",
        track: Optional[int] = None,
        parent_id: Optional[str] = None,
        args: Optional[Dict[str, object]] = None,
    ) -> Span:
        """Open a span; a same-id open span in this epoch is replaced."""
        span = Span(
            span_id=span_id,
            name=name,
            cat=cat,
            track=track,
            begin=time,
            args=dict(args) if args else {},
            parent_id=parent_id,
            epoch=self.epoch,
        )
        self.spans.append(span)
        self._open[(self.epoch, span_id)] = span
        self._saw(time)
        return span

    def end_span(
        self,
        span_id: str,
        time: int,
        *,
        args: Optional[Dict[str, object]] = None,
    ) -> Optional[Span]:
        """Close an open span; unknown ids are ignored (returns None)."""
        span = self._open.pop((self.epoch, span_id), None)
        if span is None:
            return None
        span.end = time
        if args:
            span.args.update(args)
        self._saw(time)
        return span

    def complete_span(
        self,
        span_id: str,
        name: str,
        begin: int,
        end: int,
        *,
        cat: str = "",
        track: Optional[int] = None,
        parent_id: Optional[str] = None,
        args: Optional[Dict[str, object]] = None,
    ) -> Span:
        """Record an already-finished span (e.g. a delivered packet)."""
        span = Span(
            span_id=span_id,
            name=name,
            cat=cat,
            track=track,
            begin=begin,
            end=end,
            args=dict(args) if args else {},
            parent_id=parent_id,
            epoch=self.epoch,
        )
        self.spans.append(span)
        self._saw(end)
        return span

    # --------------------------------------------------------------- points
    def instant(
        self,
        name: str,
        time: int,
        *,
        cat: str = "",
        track: Optional[int] = None,
        args: Optional[Dict[str, object]] = None,
    ) -> InstantEvent:
        """Record a point event."""
        event = InstantEvent(
            name=name,
            cat=cat,
            track=track,
            time=time,
            args=dict(args) if args else {},
            epoch=self.epoch,
        )
        self.events.append(event)
        self._saw(time)
        return event

    def sample(
        self,
        name: str,
        time: int,
        value: Number,
        *,
        cat: str = "",
        track: Optional[int] = None,
    ) -> Sample:
        """Record one counter-track sample."""
        sample = Sample(
            name=name,
            cat=cat,
            track=track,
            time=time,
            value=float(value),
            epoch=self.epoch,
        )
        self.samples.append(sample)
        self._saw(time)
        return sample

    # -------------------------------------------------------------- readout
    def __len__(self) -> int:
        return len(self.spans) + len(self.events) + len(self.samples)
