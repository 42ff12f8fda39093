"""repro.serve — simulation-as-a-service.

A stdlib-only asyncio HTTP server that accepts campaign specs, single
fuzz scenarios, and fuzz repro bundles as JSON, validates them against
the frozen wire formats, and runs them through a multi-tenant priority
job queue layered on :mod:`repro.campaign`'s content-addressed store.
Identical submissions dedupe to one execution by content hash; warm
cache hits answer without touching the executor.  Running jobs stream
live as chunked JSONL: a campaign job one progress frame per unit, a
scenario job each monitor alert as it is raised.

Execution runs on N parallel lanes (``--lanes``); a scenario job scopes
its monitor set to its lane through the context-local
``repro.obs.runtime``, and a campaign job runs with no sink.  The
service itself is instrumented one level up (``repro.serve.
telemetry``): request counters and latency histograms, queue-depth and
lane-utilization gauges, a Prometheus ``GET /metrics`` endpoint, a
JSONL access log with end-to-end request ids, and a self-contained
fleet dashboard at ``GET /dashboard``.

See docs/SERVICE.md for the API and the dedupe/caching contract.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "protocol": ["ServeError", "Submission", "parse_submission"],
        "telemetry": ["ServiceTelemetry", "render_prometheus"],
    },
)
