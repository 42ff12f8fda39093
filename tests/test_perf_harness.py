"""Benchmark registry and harness semantics."""

import os

import pytest

from repro.perf.harness import (
    exact_quantile,
    peak_rss_kb,
    run_benchmark,
    run_suite_benchmarks,
    wall_stats,
)
from repro.perf.registry import (
    Benchmark,
    BenchmarkRegistry,
    PerfError,
    load_builtin_suites,
)


class TestRegistry:
    def test_register_and_lookup(self):
        reg = BenchmarkRegistry()

        @reg.register("demo", params={"n": 3}, suites=("s1", "s2"))
        def _run(n):
            return {"sq": n * n}

        b = reg.get("demo")
        assert b.param_dict == {"n": 3}
        assert reg.suite("s1") == [b]
        assert reg.suite_names() == ["s1", "s2"]
        assert "demo" in reg
        assert len(reg) == 1

    def test_duplicate_identical_is_idempotent(self):
        reg = BenchmarkRegistry()

        def run():
            return None

        b = Benchmark(name="x", run=run)
        assert reg.add(b) is reg.add(b)
        assert len(reg) == 1

    def test_duplicate_conflicting_rejected(self):
        reg = BenchmarkRegistry()
        reg.add(Benchmark(name="x", run=lambda: None))
        with pytest.raises(PerfError, match="already registered"):
            reg.add(Benchmark(name="x", run=lambda: None, units="ops"))

    def test_invalid_declarations_rejected(self):
        with pytest.raises(PerfError):
            Benchmark(name="has space", run=lambda: None)
        with pytest.raises(PerfError):
            Benchmark(name="x", run="not-callable")
        with pytest.raises(PerfError):
            Benchmark(name="x", run=lambda: None, suites=())

    def test_unknown_name_lists_known(self):
        reg = BenchmarkRegistry()
        reg.add(Benchmark(name="known", run=lambda: None))
        with pytest.raises(PerfError, match="known"):
            reg.get("missing")

    def test_builtin_core_suite_loads(self):
        reg = load_builtin_suites()
        names = [b.name for b in reg.suite("core")]
        assert "engine.convergence" in names
        assert "lint.warm" in names
        # Loading twice must not error (idempotent registration).
        assert load_builtin_suites() is reg


class TestQuantiles:
    def test_nearest_rank(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        assert exact_quantile(samples, 0.0) == 1.0
        assert exact_quantile(samples, 0.5) == 2.0
        assert exact_quantile(samples, 0.9) == 4.0
        assert exact_quantile(samples, 1.0) == 4.0

    def test_single_sample(self):
        for q in (0.0, 0.5, 1.0):
            assert exact_quantile([7.0], q) == 7.0

    def test_errors(self):
        with pytest.raises(PerfError):
            exact_quantile([], 0.5)
        with pytest.raises(PerfError):
            exact_quantile([1.0], 1.5)

    def test_wall_stats_keys(self):
        stats = wall_stats([3.0, 1.0, 2.0])
        assert stats == {
            "min": 1.0, "median": 2.0, "p90": 3.0, "mean": 2.0, "max": 3.0,
        }
        with pytest.raises(PerfError):
            wall_stats([])


class TestRunBenchmark:
    def test_basic_run_records_everything(self):
        calls = []

        def body(n):
            calls.append(n)
            return {"value": n * 2}

        b = Benchmark(name="b", run=body, params=(("n", 5),))
        result = run_benchmark(b, reps=3, warmup=2)
        assert len(calls) == 5  # 2 warmup + 3 timed
        assert result.metrics == {"value": 10.0}
        assert len(result.per_rep_s) == 3
        assert result.reps == 3 and result.warmup == 2
        assert result.peak_rss_kb > 0 or peak_rss_kb() == 0

    def test_setup_feeds_run_untimed(self):
        def setup(n):
            return {"doubled": n * 2}

        def body(n, doubled):
            return {"out": doubled}

        b = Benchmark(name="b", run=body, params=(("n", 4),), setup=setup)
        result = run_benchmark(b, reps=1, warmup=0)
        assert result.metrics == {"out": 8.0}

    def test_nondeterministic_metrics_rejected(self):
        state = {"i": 0}

        def body():
            state["i"] += 1
            return {"i": state["i"]}

        b = Benchmark(name="b", run=body)
        with pytest.raises(PerfError, match="deterministic"):
            run_benchmark(b, reps=2, warmup=0)

    def test_bad_return_values_rejected(self):
        for bad in ([1, 2], {"k": "str"}, {"k": float("nan")}):
            b = Benchmark(name="b", run=lambda bad=bad: bad)
            with pytest.raises(PerfError):
                run_benchmark(b, reps=1, warmup=0)

    def test_none_return_means_no_metrics(self):
        b = Benchmark(name="b", run=lambda: None)
        assert run_benchmark(b, reps=1, warmup=0).metrics == {}

    def test_invalid_reps_rejected(self):
        b = Benchmark(name="b", run=lambda: None)
        with pytest.raises(PerfError):
            run_benchmark(b, reps=0)
        with pytest.raises(PerfError):
            run_benchmark(b, warmup=-1)

    def test_counters_snapshot_is_deterministic(self):
        from repro.core.config import preferred_embodiment
        from repro.core.runner import run_trials

        def body():
            run_trials(
                4, preferred_embodiment(), 2, base_seed=3, threshold=1.5
            )

        b = Benchmark(
            name="b",
            run=body,
            counters=("engine.exchanges_initiated", "engine.coins_moved"),
        )
        r1 = run_benchmark(b, reps=2, warmup=0)
        r2 = run_benchmark(b, reps=1, warmup=0)
        assert r1.counters == r2.counters
        assert r1.counters["engine.exchanges_initiated"] > 0

    def test_labeled_counters_aggregate(self):
        import repro.obs.runtime as obs_runtime

        def body():
            sink = obs_runtime.sink
            if sink is not None:
                sink.inc("x.total", 0, n=2, campaign="a")
                sink.inc("x.total", 0, n=3, campaign="b")
                sink.inc("y.total", 0, n=5)

        b = Benchmark(
            name="b", run=body, counters=("x.total", "y.total", "absent")
        )
        assert run_benchmark(b, reps=1, warmup=0).counters == {
            "x.total": 5,
            "y.total": 5,
            "absent": 0,
        }

    def test_counted_rep_keeps_no_trace(self):
        """Counting installs a tap, not an Observation that would keep
        every span, event and sample of the counted rep."""
        import repro.obs.runtime as obs_runtime
        from repro.obs.sink import Observation

        sinks = []

        def body():
            sinks.append(obs_runtime.sink)

        b = Benchmark(name="b", run=body, counters=("x.total",))
        run_benchmark(b, reps=2, warmup=0)
        timed, counted = sinks[:2], sinks[2]
        assert timed == [None, None]
        assert counted is not None
        assert not isinstance(counted, Observation)
        assert getattr(counted, "observation", None) is None

    def test_profile_rep_only_when_requested_and_allowed(self):
        from repro.core.config import preferred_embodiment
        from repro.core.runner import run_trials

        def body():
            run_trials(
                4, preferred_embodiment(), 1, base_seed=3, threshold=1.5
            )

        plain = Benchmark(name="plain", run=body, profile=False)
        assert run_benchmark(plain, reps=1, warmup=0, profile=True).phases == {}

        prof = Benchmark(name="prof", run=body, profile=True)
        r = run_benchmark(prof, reps=1, warmup=0, profile=True)
        assert r.phases
        assert sum(r.phases.values()) == pytest.approx(
            r.profile_total_s, rel=0.05
        )
        assert run_benchmark(prof, reps=1, warmup=0, profile=False).phases == {}

    def test_counted_benchmark_times_reps_without_a_sink(self):
        import repro.obs.runtime as obs_runtime
        from repro.core.config import preferred_embodiment
        from repro.core.runner import run_trials

        sink_seen = []

        def body():
            sink_seen.append(obs_runtime.sink is not None)
            run_trials(
                4, preferred_embodiment(), 1, base_seed=3, threshold=1.5
            )

        b = Benchmark(
            name="b", run=body, counters=("engine.exchanges_initiated",)
        )
        result = run_benchmark(b, reps=3, warmup=1)
        # 1 warmup + 3 timed reps run bare; one extra rep is counted.
        assert sink_seen == [False, False, False, False, True]
        assert result.counters["engine.exchanges_initiated"] > 0
        assert len(result.per_rep_s) == 3

    def test_failed_check_is_a_one_line_perf_error(self):
        def body():
            value = 2
            assert value > 100, "too\nsmall"

        b = Benchmark(name="checked", run=body)
        with pytest.raises(PerfError) as info:
            run_benchmark(b, reps=1, warmup=0)
        message = str(info.value)
        assert "'checked' failed a check at test_perf_harness.py:" in message
        assert "assert value > 100" in message
        assert "(too small" in message
        assert len(message.splitlines()) == 1

    def test_suite_entries_report_their_own_peak_rss(self):
        def hold():
            buffer = b"\x01" * (64 << 20)
            return {"held_mib": len(buffer) >> 20}

        big, small = run_suite_benchmarks(
            [
                Benchmark(name="big", run=hold),
                Benchmark(name="small", run=lambda: None),
            ],
            reps=1,
            warmup=0,
        )
        assert big.metrics == {"held_mib": 64.0}
        assert big.peak_rss_kb - small.peak_rss_kb >= 32 * 1024

    def test_crash_in_a_suite_entry_is_reported_not_hung(self):
        def crashes():
            return 1 // 0

        with pytest.raises(PerfError, match="'bad' raised ZeroDivisionError"):
            run_suite_benchmarks(
                [Benchmark(name="bad", run=crashes)], reps=1, warmup=0
            )
        with pytest.raises(PerfError, match="'dies' died with exit code 3"):
            run_suite_benchmarks(
                [Benchmark(name="dies", run=lambda: os._exit(3))],
                reps=1,
                warmup=0,
            )

    def test_run_suite_benchmarks_progress(self):
        seen = []
        benches = [
            Benchmark(name="a", run=lambda: None),
            Benchmark(name="b", run=lambda: None),
        ]
        results = run_suite_benchmarks(
            benches,
            reps=1,
            warmup=0,
            progress=lambda i, n, b: seen.append((i, n, b.name)),
        )
        assert [r.name for r in results] == ["a", "b"]
        assert seen == [(0, 2, "a"), (1, 2, "b")]
