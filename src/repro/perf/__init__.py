"""repro.perf: continuous performance observability.

Three layers, mirroring the obs/report split elsewhere in the repo:

* :mod:`repro.perf.registry` — declared, import-safe benchmarks
  grouped into suites;
* :mod:`repro.perf.harness` + :mod:`repro.perf.phase` — the only code
  that reads the wall clock: timed repetitions, exact stats, and the
  phase-attribution profiler riding the ObsSink fast path;
* :mod:`repro.perf.artifact` — the canonical-JSON ``BENCH_<suite>.
  json`` trajectory artifact and its threshold-based comparison
  (``blitzcoin-repro bench run|compare|profile|list``).
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "artifact": [
            "BENCH_SCHEMA",
            "bench_artifact",
            "bench_thresholds",
            "compare_bench_artifacts",
            "env_fingerprint",
            "flat_bench_metrics",
            "load_bench_artifact",
            "strip_timing",
            "write_bench_artifact",
        ],
        "harness": [
            "BenchResult",
            "call_benchmark",
            "exact_quantile",
            "peak_rss_kb",
            "run_benchmark",
            "run_suite_benchmarks",
            "wall_stats",
        ],
        "phase": [
            "PHASES",
            "PhaseProfiler",
            "classify_site",
            "phase_chrome_trace",
            "phase_summary_lines",
        ],
        "registry": [
            "REGISTRY",
            "Benchmark",
            "BenchmarkRegistry",
            "PerfError",
            "load_builtin_suites",
            "register",
        ],
    },
)
