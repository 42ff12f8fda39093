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

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "export": [
            "chrome_trace",
            "jsonl_records",
            "summary_lines",
            "validate_chrome_trace",
            "write_chrome_trace",
            "write_jsonl",
            "write_summary",
        ],
        "metrics": ["Counter", "Gauge", "Histogram", "MetricsError", "MetricsRegistry"],
        "monitor": [
            "Alert",
            "BudgetOvershootMonitor",
            "ConvergenceStallMonitor",
            "CounterTap",
            "Monitor",
            "MonitorSet",
            "OscillationMonitor",
            "ReconcileBacklogMonitor",
            "StarvationMonitor",
            "default_monitors",
        ],
        "profile": ["KernelProfile", "callback_site"],
        "runtime": ["current", "enabled", "install", "observing", "uninstall"],
        "sink": ["ObsError", "ObsSink", "Observation"],
        "spans": ["InstantEvent", "Sample", "Span", "TraceBuffer"],
    },
)
