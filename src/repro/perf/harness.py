"""The benchmark harness: warmup, timed repetitions, stats, counters.

One :func:`run_benchmark` call executes a registered
:class:`~repro.perf.registry.Benchmark`: ``warmup`` untimed repetitions
(imports, allocator, caches), then ``reps`` timed ones, recording per-
repetition wall seconds, exact min/median/p90/mean stats, the peak RSS
of those repetitions and any deterministic result metrics the benchmark
returns.  Timed repetitions run with no observability sink installed.
A benchmark that declares counters gets one extra untimed repetition
under ``MonitorSet([CounterTap()])``, which totals each counter over
its label sets and keeps no trace; one that declares ``profile=True``
can get one more under :class:`~repro.perf.phase.PhaseProfiler`.
Every repetition goes through :func:`call_benchmark`.
:func:`run_suite_benchmarks` runs each benchmark in its own forked
child process, so the peak RSS it reports is that benchmark's own.

The split the artifact layer depends on: everything wall-clock-derived
(times, RSS, phase attribution) is *timing*; everything else (name,
params, units, result metrics, obs counters) is *identity* and must be
byte-reproducible run over run.
"""
# The harness is the wall-clock timer the D1 rule carves benchmarks
# out for: it measures the simulator from outside, never from within.
# blitzlint: disable-file=D1

from __future__ import annotations

import math
import multiprocessing
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, ContextManager, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.monitor import CounterTap, MonitorSet
from repro.obs.runtime import observing
from repro.perf.phase import PhaseProfiler
from repro.perf.registry import Benchmark, PerfError

__all__ = [
    "BenchResult",
    "call_benchmark",
    "exact_quantile",
    "peak_rss_kb",
    "run_benchmark",
    "run_suite_benchmarks",
    "wall_stats",
]


def peak_rss_kb() -> int:
    """Process high-water RSS in KiB (0 where ``resource`` is absent).

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; normalize
    to KiB so artifacts agree across platforms.
    """
    try:
        import resource
        import sys
    except ImportError:  # non-Unix platform
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        peak //= 1024
    return int(peak)


def exact_quantile(samples: Sequence[float], q: float) -> float:
    """Exact rank quantile (no bucketing) over a non-empty sample list.

    Uses the nearest-rank method: the smallest sample covering fraction
    ``q`` of the sorted data, so ``q=0`` is the min and ``q=1`` the max.
    """
    if not samples:
        raise PerfError("exact_quantile needs at least one sample")
    if not 0.0 <= q <= 1.0:
        raise PerfError(f"quantile q={q} outside [0, 1]")
    ordered = sorted(samples)
    if q == 0.0:
        return ordered[0]
    # ceil with an epsilon so q*n landing exactly on an integer (e.g.
    # q=0.5, n=2) selects that rank, not the one above it.
    rank = max(1, math.ceil(q * len(ordered) - 1e-12))
    return ordered[min(rank, len(ordered)) - 1]


def wall_stats(per_rep_s: Sequence[float]) -> Dict[str, float]:
    """The artifact's wall-time stat row: min/median/p90/mean/max."""
    if not per_rep_s:
        raise PerfError("wall_stats needs at least one repetition")
    return {
        "min": min(per_rep_s),
        "median": exact_quantile(per_rep_s, 0.5),
        "p90": exact_quantile(per_rep_s, 0.9),
        "mean": sum(per_rep_s) / len(per_rep_s),
        "max": max(per_rep_s),
    }


@dataclass
class BenchResult:
    """Everything one benchmark run produced, identity and timing."""

    name: str
    units: str
    params: Dict[str, Any]
    reps: int
    warmup: int
    #: Deterministic result metrics returned by the benchmark body.
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Deterministic obs counter totals from the counted repetition.
    counters: Dict[str, int] = field(default_factory=dict)
    #: Wall seconds, one entry per timed repetition (timing).
    per_rep_s: List[float] = field(default_factory=list)
    #: Peak RSS in KiB of the process over the warmup and timed
    #: repetitions (timing).
    peak_rss_kb: int = 0
    #: phase -> wall seconds from the profiled repetition (timing).
    phases: Dict[str, float] = field(default_factory=dict)
    #: Total wall seconds of the profiled repetition (timing).
    profile_total_s: float = 0.0


def _coerce_metrics(name: str, value: Any) -> Dict[str, float]:
    """Validate a benchmark body's return value into flat numbers."""
    if value is None:
        return {}
    if not isinstance(value, Mapping):
        raise PerfError(
            f"benchmark {name!r} must return None or a flat mapping of "
            f"numbers, got {type(value).__name__}"
        )
    out: Dict[str, float] = {}
    for key in sorted(value):
        v = value[key]
        if isinstance(v, bool):
            v = int(v)
        if not isinstance(v, (int, float)):
            raise PerfError(
                f"benchmark {name!r} metric {key!r} is not a number"
            )
        v = float(v)
        if v != v or v in (float("inf"), float("-inf")):
            raise PerfError(
                f"benchmark {name!r} metric {key!r} is not finite"
            )
        out[str(key)] = v
    return out


def _failed_check(name: str, exc: AssertionError) -> str:
    """One line naming the benchmark and the ``assert`` that failed."""
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    message = " ".join(str(exc).split())
    return (
        f"benchmark {name!r} failed a check at "
        f"{Path(frame.filename).name}:{frame.lineno}: "
        f"{(frame.line or 'assert').strip()}"
        + (f" ({message})" if message else "")
    )


def call_benchmark(
    bench: Benchmark, scope: ContextManager[Any] = nullcontext()
) -> Tuple[float, Any]:
    """One repetition: ``setup`` untimed, then ``run`` timed inside
    ``scope`` (an installed sink or profiler, say).

    Returns (wall seconds, ``run``'s return value).  A failed
    ``assert`` in the body is raised as a one-line :class:`PerfError`
    naming the benchmark and the failing line.
    """
    kwargs = bench.param_dict
    if bench.setup is not None:
        kwargs.update(bench.setup(**kwargs) or {})
    try:
        with scope:
            t0 = time.perf_counter()
            value = bench.run(**kwargs)
            elapsed = time.perf_counter() - t0
    except AssertionError as exc:
        raise PerfError(_failed_check(bench.name, exc)) from exc
    return elapsed, value


def _same_metrics(
    name: str, previous: Optional[Dict[str, float]], value: Any
) -> Dict[str, float]:
    metrics = _coerce_metrics(name, value)
    if previous is not None and metrics != previous:
        raise PerfError(
            f"benchmark {name!r} returned different metrics "
            f"across repetitions: {previous} != {metrics} — "
            "benchmark bodies must be deterministic"
        )
    return metrics


def run_benchmark(
    bench: Benchmark,
    *,
    reps: int = 3,
    warmup: int = 1,
    profile: bool = False,
) -> BenchResult:
    """Execute one benchmark: warmup, timed reps, then the counted and
    profiled reps it declares."""
    if reps < 1:
        raise PerfError(f"reps must be >= 1, got {reps}")
    if warmup < 0:
        raise PerfError(f"warmup must be >= 0, got {warmup}")

    for _ in range(warmup):
        call_benchmark(bench)

    per_rep: List[float] = []
    metrics: Optional[Dict[str, float]] = None
    for _ in range(reps):
        elapsed, value = call_benchmark(bench)
        per_rep.append(elapsed)
        metrics = _same_metrics(bench.name, metrics, value)
    # Before the counted and profiled reps, whose sinks hold memory.
    rss_kb = peak_rss_kb()

    counters: Dict[str, int] = {}
    if bench.counters:
        # Counting through the sink path costs about 2x the wall time,
        # so it gets its own untimed rep.
        tap = CounterTap()
        _, value = call_benchmark(bench, observing(MonitorSet([tap])))
        metrics = _same_metrics(bench.name, metrics, value)
        counters = {name: tap.counts.get(name, 0) for name in bench.counters}

    phases: Dict[str, float] = {}
    profile_total = 0.0
    if profile and bench.profile:
        profiler = PhaseProfiler()
        call_benchmark(bench, profiler)
        phases = {k: profiler.totals[k] for k in sorted(profiler.totals)}
        profile_total = profiler.total_s

    return BenchResult(
        name=bench.name,
        units=bench.units,
        params=bench.param_dict,
        reps=reps,
        warmup=warmup,
        metrics=metrics or {},
        counters=counters,
        per_rep_s=per_rep,
        peak_rss_kb=rss_kb,
        phases=phases,
        profile_total_s=profile_total,
    )


def _run_in_child(writer: Any, bench: Benchmark, options: Dict[str, Any]) -> None:
    """Forked child: run ``bench`` and send (ok, result or message)."""
    try:
        outcome: Tuple[bool, Any] = (True, run_benchmark(bench, **options))
    except PerfError as exc:
        outcome = (False, str(exc))
    except Exception as exc:  # report it; the parent must not hang
        traceback.print_exc()
        outcome = (False, f"benchmark {bench.name!r} raised {exc!r}")
    writer.send(outcome)
    writer.close()


def _run_forked(bench: Benchmark, **options: Any) -> BenchResult:
    """:func:`run_benchmark` in a forked child process, so the result's
    ``peak_rss_kb`` is this benchmark's own high-water mark (a fork
    starts from the parent's current RSS, not from its peak)."""
    ctx = multiprocessing.get_context("fork")
    reader, writer = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_run_in_child, args=(writer, bench, options))
    child.start()
    writer.close()
    try:
        ok, payload = reader.recv()
    except EOFError:  # the child died before it could report
        ok, payload = False, None
    finally:
        reader.close()
        child.join()
    if not ok:
        raise PerfError(
            payload
            or f"benchmark {bench.name!r} died with exit code {child.exitcode}"
        )
    return payload


def run_suite_benchmarks(
    benchmarks: Sequence[Benchmark],
    *,
    reps: int = 3,
    warmup: int = 1,
    profile: bool = False,
    progress: Optional[Any] = None,
) -> List[BenchResult]:
    """Run a list of benchmarks in order, each in its own forked child
    process; ``progress(i, n, bench)`` is called before each one when
    given.  The first failure raises :class:`PerfError`."""
    results: List[BenchResult] = []
    for i, bench in enumerate(benchmarks):
        if progress is not None:
            progress(i, len(benchmarks), bench)
        results.append(
            _run_forked(bench, reps=reps, warmup=warmup, profile=profile)
        )
    return results
