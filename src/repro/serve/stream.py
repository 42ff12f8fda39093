"""Live job streaming: a delegating ObsSink plus a broadcast frame log.

``StreamingSink`` rides the existing fast-flag sink path: it forwards
every instrumentation call to an optional inner sink (normally the
run's :class:`~repro.obs.monitor.MonitorSet`) and, after each forwarded
call, publishes any *newly collected* monitor alerts as frames.  It
observes and never schedules, so the obs-on ≡ obs-off bit-identity the
repo asserts everywhere still holds under streaming.

Alert frames are published in emission order.  The canonical report
order is a *stable* sort by ``(epoch, cycle, monitor)`` — the same key
:meth:`MonitorSet.alerts` uses — and stable sorting preserves each
monitor's emission order, so sorting the streamed alerts by that key
reproduces the frozen RunReport's alert list byte-for-byte.  That is
the streamed ≡ stored contract docs/SERVICE.md documents and CI diffs.

Counters are throttled by prefix: only whitelisted families (default
``campaign.*`` — a few frames per unit) stream live, everything else
accumulates into ``totals`` for the final ``done`` frame, so a
100k-cycle engine run doesn't emit 100k frames.

``JobLog`` is the asyncio side: a per-job frame history plus subscriber
queues, mutated only on the event loop (worker threads go through
:meth:`JobLog.publish_threadsafe`), so late subscribers replay the full
history and a finished job's stream is complete and immutable.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.monitor import MonitorSet
from repro.obs.sink import Number, ObsSink

__all__ = ["JobLog", "StreamingSink"]

#: Counter/gauge families streamed live; everything else only totals.
DEFAULT_STREAM_PREFIXES: Tuple[str, ...] = ("campaign.",)

PublishFn = Callable[[Dict[str, Any]], None]


class StreamingSink(ObsSink):
    """Forward to ``inner`` and publish alert/counter frames.

    The wrapper must forward *every* sink method so the inner
    MonitorSet observes exactly what it would have seen installed bare;
    the offline report built from those monitors is then the ground
    truth the stream is checked against.
    """

    def __init__(
        self,
        publish: PublishFn,
        *,
        inner: Optional[MonitorSet] = None,
        stream_prefixes: Tuple[str, ...] = DEFAULT_STREAM_PREFIXES,
    ) -> None:
        self._publish = publish
        self.inner = inner
        self._prefixes = tuple(stream_prefixes)
        #: Final totals for every counter seen, streamed or not.
        self.totals: Dict[str, int] = {}
        #: Alerts published so far, in emission order.
        self.streamed_alerts: List[Dict[str, Any]] = []
        self._seen = [0] * len(inner.monitors) if inner is not None else []

    # ------------------------------------------------------------- streaming
    def _streamed(self, name: str) -> bool:
        return name.startswith(self._prefixes)

    def _drain_alerts(self) -> None:
        if self.inner is None:
            return
        for i, monitor in enumerate(self.inner.monitors):
            fresh = monitor.alerts[self._seen[i] :]
            if not fresh:
                continue
            self._seen[i] = len(monitor.alerts)
            for alert in fresh:
                record = alert.to_dict()
                self.streamed_alerts.append(record)
                self._publish({"type": "alert", "alert": record})

    def flush_alerts(self) -> None:
        """Publish alerts raised by ``MonitorSet.finish()``.

        The run scope calls ``finish()`` *after* the sink is
        uninstalled, so end-of-run flush alerts (open stalls, final
        window checks) arrive outside any forwarded call; the job
        runner calls this once afterwards to complete the stream.
        """
        self._drain_alerts()

    # ------------------------------------------------------------------ sink
    def epoch(self, label: str) -> None:
        if self.inner is not None:
            self.inner.epoch(label)
        self._publish({"type": "epoch", "label": label})
        self._drain_alerts()

    def inc(self, name: str, time: int, n: int = 1, **labels: object) -> None:
        if self.inner is not None:
            self.inner.inc(name, time, n, **labels)
        self.totals[name] = self.totals.get(name, 0) + n
        if self._streamed(name):
            self._publish(
                {
                    "type": "counter",
                    "name": name,
                    "time": time,
                    "total": self.totals[name],
                }
            )
        self._drain_alerts()

    def set_gauge(
        self, name: str, time: int, value: Number, **labels: object
    ) -> None:
        if self.inner is not None:
            self.inner.set_gauge(name, time, value, **labels)
        if self._streamed(name):
            self._publish(
                {"type": "gauge", "name": name, "time": time, "value": value}
            )
        self._drain_alerts()

    def observe(
        self, name: str, time: int, value: Number, **labels: object
    ) -> None:
        if self.inner is not None:
            self.inner.observe(name, time, value, **labels)
        self._drain_alerts()

    # --------------------------------------------------------------- tracing
    def begin_span(self, span_id, name, time, **kwargs) -> None:  # type: ignore[no-untyped-def]
        if self.inner is not None:
            self.inner.begin_span(span_id, name, time, **kwargs)

    def end_span(self, span_id, time, **kwargs) -> None:  # type: ignore[no-untyped-def]
        if self.inner is not None:
            self.inner.end_span(span_id, time, **kwargs)

    def complete_span(self, span_id, name, begin, end, **kwargs) -> None:  # type: ignore[no-untyped-def]
        if self.inner is not None:
            self.inner.complete_span(span_id, name, begin, end, **kwargs)

    def event(self, name, time, **kwargs) -> None:  # type: ignore[no-untyped-def]
        if self.inner is not None:
            self.inner.event(name, time, **kwargs)
        self._drain_alerts()

    def sample(self, name, time, value, **kwargs) -> None:  # type: ignore[no-untyped-def]
        if self.inner is not None:
            self.inner.sample(name, time, value, **kwargs)
        self._drain_alerts()

    # -------------------------------------------------------------- profiling
    def kernel_event(self, time: int, callback: Callable[[], None]) -> None:
        if self.inner is not None:
            self.inner.kernel_event(time, callback)


class JobLog:
    """Per-job frame history with asyncio fan-out.

    All state mutation happens on the owning event loop; worker threads
    publish via :meth:`publish_threadsafe`.  A ``None`` frame is the
    end-of-stream sentinel: it closes the log, is delivered to every
    live subscriber, and is replayed to late ones.
    """

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        *,
        on_frame: Optional[PublishFn] = None,
        request_id: Optional[str] = None,
    ) -> None:
        self._loop = loop
        self.history: List[Dict[str, Any]] = []
        self.closed = False
        self._subscribers: List[asyncio.Queue] = []
        #: Observer for every published frame (service telemetry counts
        #: frame types / alert rates here).  Runs on the loop thread,
        #: exactly once per frame, never for the close sentinel.
        self._on_frame = on_frame
        #: The request id that created this job, for end-to-end tracing
        #: (also carried by the first ``job`` frame).
        self.request_id = request_id

    # --------------------------------------------------------------- publish
    def publish(self, frame: Optional[Dict[str, Any]]) -> None:
        """Append one frame (loop thread only); ``None`` closes."""
        if self.closed:
            return
        if frame is None:
            self.closed = True
        else:
            self.history.append(frame)
            if self._on_frame is not None:
                self._on_frame(frame)
        for queue in self._subscribers:
            queue.put_nowait(frame)
        if self.closed:
            self._subscribers.clear()

    def publish_threadsafe(self, frame: Optional[Dict[str, Any]]) -> None:
        """Publish from a worker thread (job execution runs off-loop)."""
        self._loop.call_soon_threadsafe(self.publish, frame)

    def close(self) -> None:
        self.publish(None)

    # ------------------------------------------------------------- subscribe
    def subscribe(self) -> "asyncio.Queue[Optional[Dict[str, Any]]]":
        """A queue pre-seeded with history; ends with the None sentinel."""
        queue: asyncio.Queue = asyncio.Queue()
        for frame in self.history:
            queue.put_nowait(frame)
        if self.closed:
            queue.put_nowait(None)
        else:
            self._subscribers.append(queue)
        return queue

    def unsubscribe(self, queue: "asyncio.Queue") -> None:
        try:
            self._subscribers.remove(queue)
        except ValueError:
            pass
