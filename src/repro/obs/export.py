"""Exporters: Chrome ``trace_event`` JSON, JSONL stream, text summary.

The Chrome-trace exporter emits the `trace_event` format that both
``chrome://tracing`` and Perfetto load directly.  Mapping:

* **process (pid)** — one per (epoch, category): the ``engine``,
  ``noc``, ``soc``, ``pm`` and ``task`` layers each get their own
  process row, per trial epoch;
* **thread (tid)** — the tile id within the layer;
* **ts / dur** — simulation cycles, verbatim (the trace explicitly
  advertises ``"time_unit": "noc-cycles"`` in ``otherData``; no
  wall-clock time exists anywhere in the pipeline);
* spans become ``ph: "X"`` complete events, instants ``ph: "i"``,
  numeric samples ``ph: "C"`` counter tracks, and parent/child span
  links ``ph: "s"`` / ``ph: "f"`` flow arrows.

This is the repo's one Chrome-trace writer: :func:`metadata_event`,
:func:`trace_document` and :func:`write_trace` also build and write
the wall-time phase trace of :mod:`repro.perf.phase` (``bench profile
--trace-out``).  :func:`validate_chrome_trace` is the schema check
used by the tests and by CI on both kinds of trace.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.obs.metrics import Counter, Gauge, Histogram
from repro.obs.sink import Observation
from repro.obs.spans import Span

__all__ = [
    "chrome_trace",
    "jsonl_records",
    "metadata_event",
    "summary_lines",
    "trace_document",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "write_summary",
    "write_trace",
]

JsonDict = Dict[str, object]

#: ``ph`` values this exporter may emit.
_KNOWN_PHASES = ("X", "i", "C", "M", "s", "f")


def metadata_event(kind: str, pid: int, tid: int, name: str) -> JsonDict:
    """A ``process_name`` / ``thread_name`` metadata (``ph: "M"``) event."""
    return {
        "ph": "M",
        "name": kind,
        "pid": pid,
        "tid": tid,
        "ts": 0,
        "args": {"name": name},
    }


def trace_document(
    events: List[JsonDict],
    other: JsonDict,
    *,
    display_time_unit: Optional[str] = None,
) -> JsonDict:
    """The ``traceEvents`` / ``otherData`` envelope Perfetto loads.

    ``other["time_unit"]`` advertises what ``ts``/``dur`` count.
    """
    doc: JsonDict = {"traceEvents": events, "otherData": other}
    if display_time_unit is not None:
        doc["displayTimeUnit"] = display_time_unit
    return doc


def write_trace(doc: JsonDict, path: Union[str, Path]) -> Path:
    """Write a Chrome-trace document as sorted-key JSON; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True))
    return path


class _TrackMap:
    """Deterministic (epoch, cat) -> pid and track -> tid assignment."""

    def __init__(self) -> None:
        self._pids: Dict[Tuple[str, str], int] = {}
        self._threads: Dict[Tuple[int, int], str] = {}

    def pid(self, epoch: str, cat: str) -> int:
        key = (epoch, cat or "sim")
        if key not in self._pids:
            self._pids[key] = len(self._pids) + 1
        return self._pids[key]

    def tid(self, pid: int, track: Optional[int]) -> int:
        tid = 0 if track is None else int(track)
        name = "main" if track is None else f"tile {track}"
        self._threads[(pid, tid)] = name
        return tid

    def metadata_events(self) -> List[JsonDict]:
        events: List[JsonDict] = []
        for (epoch, cat), pid in sorted(
            self._pids.items(), key=lambda kv: kv[1]
        ):
            label = f"{epoch}:{cat}" if epoch else cat
            events.append(metadata_event("process_name", pid, 0, label))
        for (pid, tid), name in sorted(self._threads.items()):
            events.append(metadata_event("thread_name", pid, tid, name))
        return events


def _span_events(
    span: Span,
    tracks: _TrackMap,
    max_time: int,
) -> JsonDict:
    pid = tracks.pid(span.epoch, span.cat)
    tid = tracks.tid(pid, span.track)
    end = span.end if span.end is not None else max_time
    args = dict(span.args)
    if span.end is None:
        args["incomplete"] = True
    return {
        "ph": "X",
        "name": span.name,
        "cat": span.cat or "sim",
        "pid": pid,
        "tid": tid,
        "ts": span.begin,
        "dur": max(0, end - span.begin),
        "args": args,
    }


def chrome_trace(obs: Observation) -> JsonDict:
    """Render an :class:`Observation` as a Chrome ``trace_event`` dict."""
    tracks = _TrackMap()
    max_time = obs.trace.max_time
    body: List[JsonDict] = []
    by_key: Dict[Tuple[str, str], Span] = {}
    for span in obs.trace.spans:
        by_key[(span.epoch, span.span_id)] = span
        body.append(_span_events(span, tracks, max_time))
    flow_id = 0
    for span in obs.trace.spans:
        if span.parent_id is None:
            continue
        parent = by_key.get((span.epoch, span.parent_id))
        if parent is None:
            continue
        flow_id += 1
        parent_pid = tracks.pid(parent.epoch, parent.cat)
        child_pid = tracks.pid(span.epoch, span.cat)
        body.append(
            {
                "ph": "s",
                "id": flow_id,
                "name": "link",
                "cat": span.cat or "sim",
                "pid": parent_pid,
                "tid": tracks.tid(parent_pid, parent.track),
                "ts": parent.begin,
            }
        )
        body.append(
            {
                "ph": "f",
                "bp": "e",
                "id": flow_id,
                "name": "link",
                "cat": span.cat or "sim",
                "pid": child_pid,
                "tid": tracks.tid(child_pid, span.track),
                "ts": span.begin,
            }
        )
    for event in obs.trace.events:
        pid = tracks.pid(event.epoch, event.cat)
        body.append(
            {
                "ph": "i",
                "s": "t",
                "name": event.name,
                "cat": event.cat or "sim",
                "pid": pid,
                "tid": tracks.tid(pid, event.track),
                "ts": event.time,
                "args": dict(event.args),
            }
        )
    for sample in obs.trace.samples:
        pid = tracks.pid(sample.epoch, sample.cat)
        name = (
            f"{sample.name}[{sample.track}]"
            if sample.track is not None
            else sample.name
        )
        body.append(
            {
                "ph": "C",
                "name": name,
                "cat": sample.cat or "sim",
                "pid": pid,
                "tid": tracks.tid(pid, sample.track),
                "ts": sample.time,
                "args": {"value": sample.value},
            }
        )
    body.sort(key=lambda e: (int(e.get("ts", 0)), str(e.get("ph"))))
    events = tracks.metadata_events() + body
    other: JsonDict = {
        "time_unit": "noc-cycles",
        "max_time_cycles": max_time,
        "events_profiled": obs.profile.events_total,
    }
    other.update(obs.meta)
    return trace_document(events, other, display_time_unit="ns")


def write_chrome_trace(obs: Observation, path: Union[str, Path]) -> Path:
    """Write the Chrome-trace JSON for ``obs``; returns the path."""
    return write_trace(chrome_trace(obs), path)


# ------------------------------------------------------------------ validate
def validate_chrome_trace(doc: object) -> List[str]:
    """Check a loaded trace against the ``trace_event`` schema.

    Returns a list of problems (empty when the document is valid).
    This is deliberately strict about the fields Perfetto keys on:
    every event needs ``ph``/``name``/``pid``/``ts``, complete events
    need a non-negative integer ``dur``, and all timestamps must be
    integers (sim cycles).
    """
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        return ["traceEvents missing, not a list, or empty"]
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in _KNOWN_PHASES:
            problems.append(f"{where}: unknown ph {ph!r}")
            continue
        for key in ("name", "pid", "ts"):
            if key not in event:
                problems.append(f"{where}: missing {key!r}")
        if not isinstance(event.get("pid"), int):
            problems.append(f"{where}: pid is not an int")
        ts = event.get("ts")
        if not isinstance(ts, int) or isinstance(ts, bool):
            problems.append(f"{where}: ts is not an integer cycle count")
        if ph in ("X", "i", "M") and not isinstance(event.get("tid"), int):
            problems.append(f"{where}: tid is not an int")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, int) or isinstance(dur, bool) or dur < 0:
                problems.append(
                    f"{where}: complete event needs integer dur >= 0"
                )
        if ph in ("s", "f") and "id" not in event:
            problems.append(f"{where}: flow event missing id")
    return problems


# --------------------------------------------------------------------- jsonl
def jsonl_records(obs: Observation) -> Iterator[JsonDict]:
    """Yield every record of ``obs`` as one flat JSON-able dict each."""
    meta: JsonDict = {"type": "meta", "time_unit": "noc-cycles"}
    meta.update(obs.meta)
    yield meta
    for span in obs.trace.spans:
        yield {
            "type": "span",
            "id": span.span_id,
            "name": span.name,
            "cat": span.cat,
            "track": span.track,
            "begin": span.begin,
            "end": span.end,
            "parent": span.parent_id,
            "epoch": span.epoch,
            "args": span.args,
        }
    for event in obs.trace.events:
        yield {
            "type": "event",
            "name": event.name,
            "cat": event.cat,
            "track": event.track,
            "time": event.time,
            "epoch": event.epoch,
            "args": event.args,
        }
    for sample in obs.trace.samples:
        yield {
            "type": "sample",
            "name": sample.name,
            "cat": sample.cat,
            "track": sample.track,
            "time": sample.time,
            "value": sample.value,
            "epoch": sample.epoch,
        }
    for row in obs.registry.as_rows():
        record: JsonDict = {"type": "metric"}
        record.update(row)
        yield record
    for site, count in sorted(
        obs.profile.sites.items(), key=lambda kv: (-kv[1], kv[0])
    ):
        yield {"type": "profile_site", "site": site, "events": count}


def write_jsonl(obs: Observation, path: Union[str, Path]) -> Path:
    """Write the JSONL event stream for ``obs``; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for record in jsonl_records(obs):
            fh.write(json.dumps(record, sort_keys=True))
            fh.write("\n")
    return path


# ------------------------------------------------------------------- summary
def _format_value(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def summary_lines(obs: Observation, *, top_k: int = 10) -> List[str]:
    """Human-readable run summary: metrics, spans, hot callback sites."""
    lines = [
        f"== observability summary: {obs.label} ==",
        f"simulated horizon: {obs.trace.max_time} cycles",
        f"kernel events profiled: {obs.profile.events_total}",
        "",
    ]
    instruments = obs.registry.instruments()
    counters = [i for i in instruments if isinstance(i, Counter)]
    gauges = [i for i in instruments if isinstance(i, Gauge)]
    histograms = [i for i in instruments if isinstance(i, Histogram)]
    if counters:
        lines.append("-- counters --")
        width = max(len(c.qualified_name) for c in counters)
        for c in counters:
            lines.append(f"{c.qualified_name:<{width}}  {c.total:>12d}")
        lines.append("")
    if gauges:
        lines.append("-- gauges --")
        width = max(len(g.qualified_name) for g in gauges)
        for g in gauges:
            lines.append(
                f"{g.qualified_name:<{width}}  "
                f"last={_format_value(g.value)} "
                f"min={_format_value(g.min_value)} "
                f"max={_format_value(g.max_value)}"
            )
        lines.append("")
    if histograms:
        lines.append("-- histograms --")
        for h in histograms:
            lines.append(
                f"{h.qualified_name}: n={h.count} "
                f"mean={h.mean:.2f} "
                f"min={_format_value(h.min_value)} "
                f"max={_format_value(h.max_value)}"
            )
            for label, count in h.bucket_rows():
                if count:
                    lines.append(f"    {label:>10}  {count}")
        lines.append("")
    span_counts: Dict[str, int] = {}
    for span in obs.trace.spans:
        key = f"{span.cat or 'sim'}/{span.name}"
        span_counts[key] = span_counts.get(key, 0) + 1
    if span_counts:
        lines.append("-- spans --")
        for key in sorted(span_counts):
            lines.append(f"{key:<32}  {span_counts[key]:>10d}")
        lines.append("")
    lines.append(f"-- top {top_k} event-callback sites --")
    lines.extend(obs.profile.table(top_k))
    return lines


def write_summary(obs: Observation, path: Union[str, Path]) -> Path:
    """Write the text summary for ``obs``; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(summary_lines(obs)) + "\n")
    return path
