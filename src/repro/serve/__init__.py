"""repro.serve — simulation-as-a-service.

A stdlib-only asyncio HTTP server that accepts campaign specs, single
fuzz scenarios, and fuzz repro bundles as JSON, validates them against
the frozen wire formats, and runs them through a multi-tenant priority
job queue layered on :mod:`repro.campaign`'s content-addressed store.
Identical submissions dedupe to one execution by content hash; warm
cache hits answer without touching the executor.  Running jobs stream
monitor alerts and whitelisted obs counters live as chunked JSONL.

Execution runs on N parallel lanes (``--lanes``), each scoping its own
observability sink through the context-local ``repro.obs.runtime``;
the service itself is instrumented one level up (``repro.serve.
telemetry``): request counters and latency histograms, queue-depth and
lane-utilization gauges, a Prometheus ``GET /metrics`` endpoint, a
JSONL access log with end-to-end request ids, and a self-contained
fleet dashboard at ``GET /dashboard``.

See docs/SERVICE.md for the API and the dedupe/caching contract.
"""

from repro.serve.protocol import ServeError, Submission, parse_submission
from repro.serve.telemetry import ServiceTelemetry, render_prometheus

__all__ = [
    "ServeError",
    "ServiceTelemetry",
    "Submission",
    "parse_submission",
    "render_prometheus",
]
