"""Live job streaming: a per-job, replayable frame log.

A job's stream is a ``job`` frame, its ``state`` frames, what the run
publishes, and a final ``done`` frame.  A campaign job runs with no
observability sink installed and publishes one ``progress`` frame per
unit from :func:`run_campaign`'s progress callback.  A scenario job
hands ``execute_scenario`` an ``on_alert`` callback, and each monitor
calls it the moment it emits an alert, so alert frames are published in
emission order.  The canonical report order is a *stable* sort by
``(epoch, cycle, monitor)`` — the same key :meth:`MonitorSet.alerts`
uses — and stable sorting preserves each monitor's emission order, so
sorting the streamed alerts by that key reproduces the frozen
RunReport's alert list byte-for-byte.  That is the streamed ≡ stored
contract docs/SERVICE.md documents and CI diffs.

``JobLog`` keeps a per-job frame history plus subscriber queues,
mutated only on the event loop (worker threads go through
:meth:`JobLog.publish_threadsafe`), so late subscribers replay the full
history and a finished job's stream is complete and immutable.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, List, Optional

__all__ = ["JobLog"]

PublishFn = Callable[[Dict[str, Any]], None]


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
