"""repro.obs — zero-overhead-when-disabled observability.

A metrics registry (counters, gauges, histograms),
structured span/event tracing keyed to simulation cycles, a kernel
profiling hook, and exporters (Chrome ``trace_event`` JSON for
Perfetto, JSONL, text summary).  All instrumentation in the simulator
goes through the single installed :class:`ObsSink`; with no sink
installed every instrumented site is one attribute load plus an
``is None`` branch, and enabling a sink never changes simulation
results (see ``docs/OBSERVABILITY.md``).

Quick start::

    from repro.obs import observing
    from repro.obs.export import write_chrome_trace

    with observing() as session:
        run_convergence_trial(6, preferred_embodiment(), seed=0)
    write_chrome_trace(session, "trace.json")  # open in ui.perfetto.dev
"""

from repro.obs.export import (
    chrome_trace,
    jsonl_records,
    summary_lines,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
    write_summary,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
)
from repro.obs.monitor import (
    Alert,
    BudgetOvershootMonitor,
    ConvergenceStallMonitor,
    Monitor,
    MonitorSet,
    OscillationMonitor,
    ReconcileBacklogMonitor,
    StarvationMonitor,
    default_monitors,
)
from repro.obs.profile import KernelProfile, callback_site
from repro.obs.runtime import current, enabled, install, observing, uninstall
from repro.obs.sink import ObsError, ObsSink, Observation
from repro.obs.spans import InstantEvent, Sample, Span, TraceBuffer

__all__ = [
    "Alert",
    "BudgetOvershootMonitor",
    "ConvergenceStallMonitor",
    "Counter",
    "Gauge",
    "Histogram",
    "InstantEvent",
    "KernelProfile",
    "MetricsError",
    "MetricsRegistry",
    "Monitor",
    "MonitorSet",
    "OscillationMonitor",
    "ReconcileBacklogMonitor",
    "StarvationMonitor",
    "ObsError",
    "ObsSink",
    "Observation",
    "Sample",
    "Span",
    "TraceBuffer",
    "callback_site",
    "chrome_trace",
    "current",
    "default_monitors",
    "enabled",
    "install",
    "jsonl_records",
    "observing",
    "summary_lines",
    "uninstall",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "write_summary",
]
