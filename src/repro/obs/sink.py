"""The ObsSink protocol: the single doorway for all instrumentation.

Every instrumented call site in the simulator funnels through one
installed :class:`ObsSink`.  The base class is a complete no-op (the
"null sink"), so a sink may override only what it cares about;
:class:`Observation` is the batteries-included collecting sink that
feeds the exporters in :mod:`repro.obs.export`.

Sinks receive *simulation cycles*, never wall-clock timestamps, and
must not schedule events or mutate simulation state: an enabled run is
required to be bit-identical to a disabled one.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Union

from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import KernelProfile
from repro.obs.spans import TraceBuffer

__all__ = ["ObsError", "ObsSink", "Observation"]

Number = Union[int, float]


class ObsError(RuntimeError):
    """Raised for observability-runtime misuse (double install etc.)."""


class ObsSink:
    """No-op base sink; subclass and override what you need.

    All ``time`` arguments are simulation cycles.
    """

    def epoch(self, label: str) -> None:
        """Mark the start of a new epoch (e.g. a new trial)."""

    # --------------------------------------------------------------- metrics
    def inc(self, name: str, time: int, n: int = 1, **labels: object) -> None:
        """Increment counter ``name{labels}``."""

    def set_gauge(
        self, name: str, time: int, value: Number, **labels: object
    ) -> None:
        """Set gauge ``name{labels}``."""

    def observe(
        self, name: str, time: int, value: Number, **labels: object
    ) -> None:
        """Observe ``value`` into histogram ``name{labels}``."""

    # --------------------------------------------------------------- tracing
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
    ) -> None:
        """Open a span."""

    def end_span(
        self,
        span_id: str,
        time: int,
        *,
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        """Close a span opened with :meth:`begin_span`."""

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
    ) -> None:
        """Record an already-finished span in one call."""

    def event(
        self,
        name: str,
        time: int,
        *,
        cat: str = "",
        track: Optional[int] = None,
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        """Record an instant event."""

    def sample(
        self,
        name: str,
        time: int,
        value: Number,
        *,
        cat: str = "",
        track: Optional[int] = None,
    ) -> None:
        """Record one numeric counter-track sample."""

    # -------------------------------------------------------------- profiling
    def kernel_event(self, time: int, callback: Callable[[], None]) -> None:
        """Count one executed kernel event (profiling hook)."""


class Observation(ObsSink):
    """Collecting sink: metrics registry + trace buffer + kernel profile.

    One Observation corresponds to one observed run (or a sequence of
    trials separated by :meth:`epoch` calls).  Hand it to the exporters
    in :mod:`repro.obs.export` afterwards.
    """

    def __init__(self, label: str = "run") -> None:
        self.label = label
        self.registry = MetricsRegistry()
        self.trace = TraceBuffer()
        self.profile = KernelProfile()
        self.meta: Dict[str, object] = {"label": label}

    def epoch(self, label: str) -> None:
        self.trace.set_epoch(label)

    # --------------------------------------------------------------- metrics
    def inc(self, name: str, time: int, n: int = 1, **labels: object) -> None:
        self.registry.inc(name, time, n, **labels)

    def set_gauge(
        self, name: str, time: int, value: Number, **labels: object
    ) -> None:
        self.registry.set_gauge(name, time, value, **labels)

    def observe(
        self, name: str, time: int, value: Number, **labels: object
    ) -> None:
        self.registry.observe(name, time, value, **labels)

    # --------------------------------------------------------------- tracing
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
    ) -> None:
        self.trace.begin_span(
            span_id, name, time,
            cat=cat, track=track, parent_id=parent_id, args=args,
        )

    def end_span(
        self,
        span_id: str,
        time: int,
        *,
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        self.trace.end_span(span_id, time, args=args)

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
    ) -> None:
        self.trace.complete_span(
            span_id, name, begin, end,
            cat=cat, track=track, parent_id=parent_id, args=args,
        )

    def event(
        self,
        name: str,
        time: int,
        *,
        cat: str = "",
        track: Optional[int] = None,
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        self.trace.instant(name, time, cat=cat, track=track, args=args)

    def sample(
        self,
        name: str,
        time: int,
        value: Number,
        *,
        cat: str = "",
        track: Optional[int] = None,
    ) -> None:
        self.trace.sample(name, time, value, cat=cat, track=track)

    # -------------------------------------------------------------- profiling
    def kernel_event(self, time: int, callback: Callable[[], None]) -> None:
        self.profile.on_event(time, callback)
