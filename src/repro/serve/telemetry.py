"""Service-level telemetry: fleet metrics, /metrics text, access log.

The serve layer's per-run observability (stream frames, RunReport)
answers "what happened inside one simulation"; this module answers
"what is the *service* doing" — request rates and latency, queue
depth, lane utilization, dedupe effectiveness, alert rates — the
fleet-level view a deployment scrapes and graphs.

Everything rides the existing :class:`~repro.obs.metrics.
MetricsRegistry` (one more consumer of the same instrument model, not
a second metrics system), guarded by one lock because lane worker
threads and the event loop both record.  Two views are rendered
from it:

* :func:`render_prometheus` — the ``GET /metrics`` body in Prometheus
  text exposition format, stdlib-only (the strict parser that checks
  it lives with the tests, in ``tests/prometheus.py``);
* :func:`render_fleet_dashboard` — the self-contained ``GET
  /dashboard`` HTML (inline CSS/SVG only, same discipline as
  ``repro.report.dashboard``: no external fetches, ever).

This module never reads a clock: callers pass relative timestamps
(seconds since server start) into the recording calls, so the
telemetry core stays deterministic and blitzlint-D1 clean; the only
wall-clock reads live in the server with justified pragmas.
"""

from __future__ import annotations

import html
import json
import re
import threading
from pathlib import Path
from typing import Any, Dict, IO, List, Mapping, Optional, Sequence, Tuple, Union

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry

__all__ = [
    "AccessLog",
    "PrometheusParseError",
    "ServiceTelemetry",
    "endpoint_of",
    "render_fleet_dashboard",
    "render_prometheus",
]

#: Request latency bucket upper edges, in milliseconds.
LATENCY_BOUNDS_MS: Tuple[float, ...] = (
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000,
)

#: Sparkline ring: one bin per second, most recent last.
SERIES_BINS = 60

#: Route templates used as the ``endpoint`` label — raw paths would
#: explode label cardinality (every job id its own time series).
_ENDPOINTS = (
    "/",
    "/healthz",
    "/submit",
    "/jobs",
    "/queue",
    "/metrics",
    "/dashboard",
)


def endpoint_of(path: str) -> str:
    """Collapse a request path onto its route template."""
    if path in _ENDPOINTS:
        return path
    if path.startswith("/jobs/"):
        tail = path.strip("/").split("/")
        if len(tail) == 3 and tail[2] in ("cancel", "stream"):
            return f"/jobs/<id>/{tail[2]}"
        return "/jobs/<id>"
    if path.startswith("/runs/"):
        tail = path.strip("/").split("/")
        if len(tail) == 3 and tail[2] in ("report", "dashboard"):
            return f"/runs/<hash>/{tail[2]}"
        return "/runs/<hash>"
    return "<other>"


class _RateSeries:
    """Per-second event bins for a sparkline, bounded memory."""

    def __init__(self, bins: int = SERIES_BINS) -> None:
        self._bins = bins
        self._by_second: Dict[int, float] = {}

    def add(self, now_s: float, n: float = 1.0) -> None:
        second = int(now_s)
        self._by_second[second] = self._by_second.get(second, 0.0) + n
        if len(self._by_second) > self._bins * 2:
            for stale in sorted(self._by_second)[: -self._bins]:
                del self._by_second[stale]

    def tail(self, now_s: float) -> List[float]:
        """The last :data:`SERIES_BINS` per-second values, oldest first."""
        last = int(now_s)
        return [
            self._by_second.get(s, 0.0)
            for s in range(last - SERIES_BINS + 1, last + 1)
        ]


class ServiceTelemetry:
    """Thread-safe fleet instrumentation for one server instance.

    ``now_s`` arguments are seconds since server start (monotonic,
    supplied by the caller); the registry's integer time slot stores
    the whole second, so counter first/last times read as uptime
    seconds.
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self._lock = threading.Lock()
        self._req_seq = 0
        self.series: Dict[str, _RateSeries] = {
            "requests": _RateSeries(),
            "jobs": _RateSeries(),
            "alerts": _RateSeries(),
            "errors": _RateSeries(),
        }

    # ------------------------------------------------------------ request ids
    def next_request_id(self) -> str:
        """A deterministic per-server request id: ``req-000001``, …"""
        with self._lock:
            self._req_seq += 1
            return f"req-{self._req_seq:06d}"

    # -------------------------------------------------------------- recording
    def record_request(
        self,
        endpoint: str,
        method: str,
        status: int,
        elapsed_ms: float,
        now_s: float,
    ) -> None:
        """One completed HTTP exchange."""
        t = int(now_s)
        with self._lock:
            self.registry.inc(
                "serve.requests",
                t,
                endpoint=endpoint,
                method=method,
                status=int(status),
            )
            self.registry.histogram(
                "serve.request_ms", bounds=LATENCY_BOUNDS_MS, endpoint=endpoint
            ).observe(t, max(0.0, float(elapsed_ms)))
            self.series["requests"].add(now_s)
            if status >= 500:
                self.series["errors"].add(now_s)

    def record_submission(self, outcome: str, kind: str, now_s: float) -> None:
        """One ``/submit`` resolution: ``new``/``deduped``/``cached``."""
        with self._lock:
            self.registry.inc(
                "serve.submissions", int(now_s), outcome=outcome, kind=kind
            )

    def record_job_done(self, state: str, kind: str, now_s: float) -> None:
        """One job reaching a terminal state (``done``/``failed``/…)."""
        with self._lock:
            self.registry.inc(
                "serve.jobs_finished", int(now_s), state=state, kind=kind
            )
            self.series["jobs"].add(now_s)

    def record_frame(self, frame: Mapping[str, Any], now_s: float) -> None:
        """Count stream frames as they are published (any thread)."""
        kind = str(frame.get("type", ""))
        with self._lock:
            self.registry.inc("serve.stream_frames", int(now_s), type=kind)
            if kind == "alert":
                self.series["alerts"].add(now_s)

    def set_queue_depth(self, depth: int, now_s: float) -> None:
        with self._lock:
            self.registry.set_gauge("serve.queue_depth", int(now_s), depth)

    def set_lanes(self, busy: int, total: int, now_s: float) -> None:
        t = int(now_s)
        with self._lock:
            self.registry.set_gauge("serve.lanes_busy", t, busy)
            self.registry.set_gauge("serve.lanes_total", t, total)

    def set_dedupe_hit_rate(self, stats: Mapping[str, int], now_s: float) -> None:
        """Derived gauge: (deduped + cache hits) / submissions."""
        submitted = int(stats.get("submitted", 0))
        hits = int(stats.get("deduped", 0)) + int(stats.get("cache_hits", 0))
        rate = hits / submitted if submitted else 0.0
        with self._lock:
            self.registry.set_gauge("serve.dedupe_hit_rate", int(now_s), rate)

    # ---------------------------------------------------------------- readout
    def series_tail(self, name: str, now_s: float) -> List[float]:
        with self._lock:
            return self.series[name].tail(now_s)

    def request_total(self) -> int:
        """All requests recorded so far, across every label set."""
        with self._lock:
            return sum(
                i.total
                for i in self.registry.instruments()
                if isinstance(i, Counter) and i.name == "serve.requests"
            )

    def render_metrics(self) -> str:
        with self._lock:
            return render_prometheus(self.registry)


# ---------------------------------------------------------------------------
# Prometheus text exposition format (stdlib-only render)
# ---------------------------------------------------------------------------

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

_HELP_TEXT = {
    "serve_requests": "HTTP requests handled, by endpoint/method/status.",
    "serve_request_ms": "Request latency in milliseconds, by endpoint.",
    "serve_submissions": "Submissions resolved, by outcome and kind.",
    "serve_jobs_finished": "Jobs reaching a terminal state.",
    "serve_stream_frames": "Job stream frames published, by frame type.",
    "serve_queue_depth": "Jobs currently waiting in the priority queue.",
    "serve_lanes_busy": "Execution lanes currently running a job.",
    "serve_lanes_total": "Execution lanes configured (--lanes).",
    "serve_dedupe_hit_rate": "(deduped + cached) / submitted, this process.",
}


class PrometheusParseError(ValueError):
    """The text is not valid Prometheus exposition format."""


def _prom_name(name: str) -> str:
    """Registry name → metric name (dots and dashes become ``_``)."""
    out = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not _NAME_OK.match(out):
        out = "_" + out
    return out


def _prom_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _prom_labels(labels: Sequence[Tuple[str, str]]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{_prom_name(k)}="{_prom_label_value(v)}"' for k, v in labels
    )
    return "{" + inner + "}"


def _fmt_value(value: float) -> str:
    as_float = float(value)
    if as_float == int(as_float) and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry as Prometheus text exposition format (0.0.4).

    Counters render as ``<name>_total``, gauges as ``<name>``, and
    histograms as the conventional ``_bucket``/``_sum``/``_count``
    triple with cumulative ``le`` buckets ending at ``+Inf``.
    """
    families: Dict[str, List[Any]] = {}
    order: List[str] = []
    for instrument in registry.instruments():
        name = _prom_name(instrument.name)
        if name not in families:
            families[name] = []
            order.append(name)
        families[name].append(instrument)
    lines: List[str] = []
    for name in order:
        instruments = families[name]
        kinds = {type(i) for i in instruments}
        if len(kinds) != 1:
            raise PrometheusParseError(
                f"family {name!r} mixes instrument kinds: "
                f"{sorted(k.__name__ for k in kinds)}"
            )
        kind = kinds.pop()
        help_text = _HELP_TEXT.get(name, f"repro.obs metric {name}.")
        lines.append(f"# HELP {name} {help_text}")
        if kind is Counter:
            lines.append(f"# TYPE {name} counter")
            for c in instruments:
                lines.append(
                    f"{name}_total{_prom_labels(c.labels)} "
                    f"{_fmt_value(c.total)}"
                )
        elif kind is Gauge:
            lines.append(f"# TYPE {name} gauge")
            for g in instruments:
                lines.append(
                    f"{name}{_prom_labels(g.labels)} {_fmt_value(g.value)}"
                )
        else:
            lines.append(f"# TYPE {name} histogram")
            for h in instruments:
                cumulative = 0
                for i, bound in enumerate(h.bounds):
                    cumulative += h.counts[i]
                    labels = tuple(h.labels) + (("le", _fmt_value(bound)),)
                    lines.append(
                        f"{name}_bucket{_prom_labels(labels)} {cumulative}"
                    )
                labels = tuple(h.labels) + (("le", "+Inf"),)
                lines.append(f"{name}_bucket{_prom_labels(labels)} {h.count}")
                lines.append(
                    f"{name}_sum{_prom_labels(h.labels)} "
                    f"{_fmt_value(h.total)}"
                )
                lines.append(
                    f"{name}_count{_prom_labels(h.labels)} {h.count}"
                )
    return "\n".join(lines) + "\n" if lines else ""


# ---------------------------------------------------------------------------
# JSONL access log
# ---------------------------------------------------------------------------


class AccessLog:
    """Structured JSONL access log, one object per completed request.

    Lines carry the request id that is also propagated into job stream
    frames (``{"type": "job", "request": "req-000042", ...}``), so a
    request can be traced from the access log into the job it created
    and back.  Writes happen only on the event loop thread; each line
    is flushed so a crashed server leaves complete records.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh: Optional[IO[str]] = open(  # noqa: SIM115 — long-lived
            self.path, "a", encoding="utf-8"
        )

    def record(self, doc: Mapping[str, Any]) -> None:
        if self._fh is None:
            return
        self._fh.write(json.dumps(dict(doc), sort_keys=True) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


# ---------------------------------------------------------------------------
# Fleet dashboard (inline-only HTML)
# ---------------------------------------------------------------------------

_FLEET_CSS = """
:root { --bg:#101418; --panel:#1a2028; --text:#e6e9ee; --muted:#8a93a2;
        --accent:#53b1fd; --ok:#39d98a; --warn:#f7b955; --err:#ff6b6b; }
* { box-sizing: border-box; }
body { background:var(--bg); color:var(--text); margin:0;
       font:14px/1.45 system-ui, sans-serif; padding:24px; }
h1 { font-size:19px; margin:0 0 4px; }
h2 { font-size:14px; color:var(--muted); margin:22px 0 8px;
     text-transform:uppercase; letter-spacing:.06em; }
.sub { color:var(--muted); margin-bottom:18px; }
.tiles { display:flex; flex-wrap:wrap; gap:12px; }
.tile { background:var(--panel); border-radius:8px; padding:12px 16px;
        min-width:150px; }
.tile .v { font-size:22px; font-weight:600; }
.tile .k { color:var(--muted); font-size:12px; }
.spark { display:flex; flex-wrap:wrap; gap:12px; }
.spark .cell { background:var(--panel); border-radius:8px; padding:10px; }
table { border-collapse:collapse; background:var(--panel);
        border-radius:8px; overflow:hidden; }
th, td { padding:6px 12px; text-align:left; font-size:13px; }
th { color:var(--muted); font-weight:500;
     border-bottom:1px solid #2a313c; }
td.num { font-variant-numeric:tabular-nums; text-align:right; }
svg text { fill:var(--muted); font-size:11px; }
"""


def _esc(value: object) -> str:
    return html.escape(str(value), quote=True)


def _sparkline(
    values: Sequence[float], *, width: int = 220, height: int = 44,
    color: str = "#53b1fd", label: str = "",
) -> str:
    """An inline SVG polyline sparkline over ``values`` (oldest first)."""
    n = max(len(values), 2)
    top = max(max(values, default=0.0), 1e-9)
    step = width / (n - 1)
    points = " ".join(
        f"{i * step:.1f},{height - 6 - (v / top) * (height - 14):.1f}"
        for i, v in enumerate(values)
    )
    peak = f"peak {top:g}" if values and top > 1e-9 else "idle"
    return (
        f"<svg viewBox='0 0 {width} {height}' width='{width}' "
        f"height='{height}' role='img' aria-label='{_esc(label)}'>"
        f"<polyline points='{points}' fill='none' stroke='{color}' "
        "stroke-width='1.6'/>"
        f"<text x='2' y='11'>{_esc(label)} · {_esc(peak)}</text>"
        "</svg>"
    )


def _tile(label: str, value: object) -> str:
    return (
        f"<div class='tile'><div class='v'>{_esc(value)}</div>"
        f"<div class='k'>{_esc(label)}</div></div>"
    )


def _endpoint_rows(telemetry: ServiceTelemetry) -> str:
    by_endpoint: Dict[str, Dict[str, float]] = {}
    with telemetry._lock:
        for instrument in telemetry.registry.instruments():
            labels = dict(instrument.labels)
            if isinstance(instrument, Counter) and (
                instrument.name == "serve.requests"
            ):
                row = by_endpoint.setdefault(
                    labels.get("endpoint", "?"), {"requests": 0.0}
                )
                row["requests"] += instrument.total
                if int(labels.get("status", "0")) >= 400:
                    row["errors"] = row.get("errors", 0.0) + instrument.total
            elif isinstance(instrument, Histogram) and (
                instrument.name == "serve.request_ms"
            ):
                row = by_endpoint.setdefault(
                    labels.get("endpoint", "?"), {"requests": 0.0}
                )
                row["p50"] = instrument.percentile(0.50) or 0.0
                row["p99"] = instrument.percentile(0.99) or 0.0
    cells = []
    for endpoint in sorted(by_endpoint):
        row = by_endpoint[endpoint]
        cells.append(
            f"<tr><td>{_esc(endpoint)}</td>"
            f"<td class='num'>{int(row.get('requests', 0))}</td>"
            f"<td class='num'>{int(row.get('errors', 0))}</td>"
            f"<td class='num'>{row.get('p50', 0.0):.1f}</td>"
            f"<td class='num'>{row.get('p99', 0.0):.1f}</td></tr>"
        )
    return (
        "<table><thead><tr><th>endpoint</th><th>requests</th>"
        "<th>4xx/5xx</th><th>p50 ms</th><th>p99 ms</th></tr></thead>"
        "<tbody>" + "".join(cells) + "</tbody></table>"
    )


def render_fleet_dashboard(
    telemetry: ServiceTelemetry,
    *,
    stats: Mapping[str, int],
    queue_depth: int,
    lanes_busy: int,
    lanes_total: int,
    store_root: str,
    uptime_s: float,
    now_s: float,
) -> str:
    """The ``GET /dashboard`` page: one self-contained HTML document.

    Inline CSS + inline SVG only — no scripts, no external fonts,
    stylesheets, or images — so the file renders identically from an
    air-gapped artifact store (asserted by the same banned-substring
    test the per-run dashboard uses).
    """
    submitted = int(stats.get("submitted", 0))
    hits = int(stats.get("deduped", 0)) + int(stats.get("cache_hits", 0))
    hit_rate = f"{hits / submitted:.1%}" if submitted else "n/a"
    executed = int(stats.get("executed", 0))
    throughput = telemetry.series_tail("requests", now_s)
    jobs = telemetry.series_tail("jobs", now_s)
    alerts = telemetry.series_tail("alerts", now_s)
    errors = telemetry.series_tail("errors", now_s)
    tiles = "".join(
        (
            _tile("uptime", f"{uptime_s:.0f}s"),
            _tile("requests", telemetry.request_total()),
            _tile("submissions", submitted),
            _tile("dedupe hit rate", hit_rate),
            _tile("jobs executed", executed),
            _tile("jobs failed", int(stats.get("failed", 0))),
            _tile("queue depth", queue_depth),
            _tile("lanes busy", f"{lanes_busy}/{lanes_total}"),
        )
    )
    sparks = "".join(
        f"<div class='cell'>{svg}</div>"
        for svg in (
            _sparkline(throughput, label="requests/s", color="#53b1fd"),
            _sparkline(jobs, label="jobs done/s", color="#39d98a"),
            _sparkline(alerts, label="alerts/s", color="#f7b955"),
            _sparkline(errors, label="5xx/s", color="#ff6b6b"),
        )
    )
    return (
        "<!DOCTYPE html>\n<html lang='en'>\n<head>\n"
        "<meta charset='utf-8'>\n"
        "<title>blitzcoin-repro serve — fleet</title>\n"
        f"<style>{_FLEET_CSS}</style>\n</head>\n<body>\n"
        "<h1>blitzcoin-repro serve — fleet dashboard</h1>\n"
        f"<div class='sub'>store {_esc(store_root)} · "
        f"{lanes_total} lane(s)</div>\n"
        f"<h2>Service</h2>\n<div class='tiles'>{tiles}</div>\n"
        f"<h2>Last {SERIES_BINS}s</h2>\n<div class='spark'>{sparks}</div>\n"
        f"<h2>Endpoints</h2>\n{_endpoint_rows(telemetry)}\n"
        "</body>\n</html>\n"
    )
