"""Tests of the benchmark's own logic (no simulation runs).

  python3 -m pytest blitzbench/tests -q
"""

from __future__ import annotations

import functools
import gc
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import pytest

import batch
import calib
import host
import run
import serve_load
import stats
import tracer
import verify


# ------------------------------------------------------------ percentiles
def test_nearest_rank_percentile() -> None:
    samples = [float(x) for x in range(10, 0, -1)]  # unsorted 1..10
    assert stats.percentile(samples, 50) == 5.0
    assert stats.percentile(samples, 90) == 9.0
    assert stats.percentile(samples, 91) == 10.0
    assert stats.percentile(samples, 100) == 10.0
    assert stats.percentile(samples, 1) == 1.0
    assert stats.percentile(list(range(1, 21)), 95) == 19
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 0)


def test_ten_samples_beyond_rule() -> None:
    assert stats.samples_beyond(1000, 99) == 10
    assert stats.supported(1000, 99)
    assert not stats.supported(999, 99)
    assert stats.supported(100, 90)
    assert not stats.supported(99, 90)
    assert not stats.supported(0, 50)
    assert stats.supported_tails(10_000) == [90.0, 99.0, 99.9]
    assert stats.supported_tails(1000) == [90.0, 99.0]
    assert stats.supported_tails(150) == [90.0]
    assert stats.supported_tails(50) == []


def test_median_of_k_setup() -> None:
    # One slow start (a cold bytecode cache) does not move the median.
    assert stats.median_of_k([0.91, 0.70, 3.20]) == 0.91
    assert stats.median_of_k([1.0, 2.0, 3.0, 10.0]) == 2.5
    assert stats.median_of_k([0.5]) == 0.5
    with pytest.raises(ValueError):
        stats.median_of_k([])


def test_spread_uses_statistics_quantiles() -> None:
    values = [1.0, 1.1, 0.9, 1.3, 1.05, 0.95, 1.2, 1.0, 0.98, 1.02]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.quartiles(values) == (q1, q2, q3)
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)


# -------------------------------------------------------------- self time
class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def test_self_time_nested_and_back_to_back() -> None:
    clock = FakeClock()
    tr = tracer.Tracer(clock=clock)

    def leaf() -> None:  # noc, 3 s
        clock.advance(3.0)

    def middle() -> None:  # core, 2 s own + a nested noc call
        clock.advance(1.0)
        tr.call("noc", leaf)
        clock.advance(1.0)

    def short() -> None:  # core, 2 s, no children
        clock.advance(2.0)

    def job() -> None:  # soc root: 1 s, two core calls back to back, 0.5 s
        clock.advance(1.0)
        tr.call("core", middle)
        tr.call("core", short)
        clock.advance(0.5)

    tr.run_job("job-1", "soc", job)
    assert tr.self_s["noc"] == pytest.approx(3.0)
    assert tr.self_s["core"] == pytest.approx(4.0)
    assert tr.self_s["soc"] == pytest.approx(1.5)
    assert sum(tr.self_s.values()) == pytest.approx(clock.now)
    # The job span covers the whole job and carries its own split.
    name, _, start, end, parent, job_id, args = tr.spans[0]
    assert (name, start, end, parent, job_id) == ("job-1", 0.0, 8.5, None, "job-1")
    assert args["self_s.core"] == pytest.approx(4.0)


def test_wrapped_callbacks_charge_their_module_layer() -> None:
    clock = FakeClock()
    tr = tracer.Tracer(clock=clock)

    def engine_event() -> None:
        clock.advance(2.0)

    def noc_event(packet: int) -> int:
        clock.advance(1.0)
        return packet + 1

    engine_event.__module__ = "repro.core.engine"
    noc_event.__module__ = "repro.noc.behavioral"
    timed_engine = tr.wrap_callback(engine_event, "sim.events")
    timed_noc = tr.wrap_callback(noc_event)

    def dispatch() -> None:  # the kernel loop: 0.5 s of its own
        clock.advance(0.25)
        timed_engine()
        assert timed_noc(41) == 42
        clock.advance(0.25)

    tr.call("sim", dispatch)
    assert tr.self_s == {"sim": 0.5, "core": 2.0, "noc": 1.0}
    assert tr.counts["sim.events"] == 1


def test_layer_of_follows_the_defining_module() -> None:
    def fn() -> None:
        pass

    fn.__module__ = "repro.baselines.centralized"
    assert tracer.layer_of(fn) == "baselines"
    assert tracer.layer_of(functools.partial(fn)) == "baselines"

    class Executor:
        def complete(self) -> None:
            pass

    Executor.complete.__module__ = "repro.soc.executor"
    assert tracer.layer_of(Executor().complete) == "soc"
    assert tracer.layer_of(len) == "other"


def test_missing_hook_target_is_reported_absent(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setattr(
        tracer,
        "HOOKS",
        (
            ("statistics", "NoSuchClass.method", "noc.topology", "fine"),
            ("no_such_module_for_blitzbench", "Simulator.run", "sim", "span"),
        ),
    )
    tr = tracer.Tracer()
    tr.install()
    tr.uninstall()
    assert tr.absent == [
        "statistics.NoSuchClass.method",
        "no_such_module_for_blitzbench.Simulator.run",
    ]


def test_fine_hook_times_only_the_outermost_call() -> None:
    clock = FakeClock()
    tr = tracer.Tracer(clock=clock)

    class Curve:
        def f_max_at(self, v: float) -> float:
            clock.advance(1.0)
            return v

        def v_for_f(self, f: float) -> float:
            clock.advance(1.0)
            return self.f_max_at(f) + self.f_max_at(f)

    Curve.f_max_at = tr._make_hook(Curve.f_max_at, "power", "fine", "f_max_at")  # type: ignore[method-assign]
    Curve.v_for_f = tr._make_hook(Curve.v_for_f, "power", "fine", "v_for_f")  # type: ignore[method-assign]
    assert Curve().v_for_f(2.0) == 4.0
    assert tr.counts["power.vf_calls"] == 3
    assert tr.self_s["power"] == pytest.approx(3.0)


# ------------------------------------------------------------- references
def test_perturbed_reference_drops_success_ratio() -> None:
    jobs = [
        {"id": "a", "ok": True, "output": {"cycles": 1453, "packets": 17840}},
        {"id": "b", "ok": True, "output": {"cycles": 1369, "packets": 17009}},
    ]
    reference = {j["id"]: dict(j["output"]) for j in jobs}
    assert [verify.job_failure(j, reference) for j in jobs] == [None, None]
    assert verify.success_ratio(len(jobs), 0) == 1.0

    reference["b"]["cycles"] += 1
    failures = [r for r in (verify.job_failure(j, reference) for j in jobs) if r]
    assert failures == ["output differs from reference"]
    assert verify.success_ratio(len(jobs), len(failures)) < 1.0


def test_failed_job_counts_and_digest_tracks_outputs() -> None:
    job = {"id": "a", "ok": False, "error": "JobFailure: trial did not converge"}
    assert verify.job_failure(job, None) == "JobFailure: trial did not converge"
    one = verify.digest([("a", {"cycles": 1}), ("b", {"cycles": 2})])
    assert one == verify.digest([("a", {"cycles": 1}), ("b", {"cycles": 2})])
    assert one != verify.digest([("a", {"cycles": 1}), ("b", {"cycles": 3})])


def success_bound() -> float:
    doc = json.loads((run.procs.ROOT / "BENCHMARK.json").read_text())
    return next(m["bound"] for m in doc["end_to_end"] if m["name"] == "success_ratio")


def test_one_failed_job_breaches_the_success_bound() -> None:
    # The most attempts a batch run makes: each job of its list is one
    # attempt, and the traced run runs the first pass's jobs twice.  A
    # serve run makes two per cold job (the job and its warm requests);
    # 1000 is far beyond either.
    batch_attempts = max(
        2 * len(make_jobs(1, 30.0 * run.LIST_SHARE[w]))
        for w, (_, make_jobs) in batch.WORKLOADS.items()
    )
    for attempted in (batch_attempts, 1000):
        assert 1.0 - verify.success_ratio(attempted, 1) > success_bound()


def test_batch_check_compares_passes(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setattr(verify, "load_reference", lambda workload, seed: None)
    a = {"id": "a", "ok": True, "output": {"cycles": 1}}
    b = {"id": "b", "ok": True, "output": {"cycles": 2}}
    report = run.Report()
    assert run.check_batch(report, "soc-pm", 5, [{"jobs": [a, b]}, {"jobs": [a, b]}]) == 4
    assert (report.attempted, report.failed, report.correct) == (4, 0, True)

    report = run.Report()
    b_changed = dict(b, output={"cycles": 3})
    assert run.check_batch(report, "soc-pm", 5, [{"jobs": [a, b]}, {"jobs": [a, b_changed]}]) == 3
    assert (report.attempted, report.failed, report.correct) == (4, 1, False)
    assert "b: output differs between passes" in report.lines[0]


# ------------------------------------------------------------ calibration
def test_reference_load_is_deterministic_and_conserves_tokens() -> None:
    def tokens(sim: calib.RefSim) -> int:
        in_flight = sum(e.arg.tokens for e in sim.heap if e.fn == sim.deliver)
        return sum(t.tokens for t in sim.tiles) + in_flight

    one, two = calib.RefSim(), calib.RefSim()
    before = tokens(one)
    one.step(5000)
    two.step(5000)
    assert one.now == two.now and one.seq == two.seq
    assert [t.tokens for t in one.tiles] == [t.tokens for t in two.tiles]
    assert tokens(one) == before
    # Every event schedules exactly one more: the working set stays put.
    assert len(one.heap) == 3 * one.d * one.d


@pytest.mark.parametrize("on_cpu", [False, True])
def test_sampler_ticks_and_restores_the_alarm_handler(on_cpu: bool) -> None:
    previous = signal.getsignal(signal.SIGALRM)
    home = os.sched_getaffinity(0)
    sampler = calib.Sampler(interval_s=0.005, events=20, cpu=max(home) if on_cpu else None)
    sampler.start()
    deadline = time.monotonic() + 5.0
    while len(sampler.ticks) < 3 and time.monotonic() < deadline:
        sum(range(10_000))
    sampler.stop()
    assert len(sampler.ticks) >= 3
    assert sampler.busy_s >= sum(sampler.ticks) > 0.0
    assert signal.getsignal(signal.SIGALRM) == previous
    assert os.sched_getaffinity(0) == home
    assert gc.isenabled()
    summary = sampler.summary()
    assert summary["ticks"] == len(sampler.ticks)
    assert summary["tick_mean_s"] == pytest.approx(statistics.fmean(sampler.ticks))


def test_pin_apart_gives_the_server_a_cpu_of_its_own() -> None:
    home = os.sched_getaffinity(0)
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"])
    try:
        cpu = host.pin_apart(child.pid)
        assert os.sched_getaffinity(child.pid) == {cpu}
        assert cpu == max(home)
        assert os.sched_getaffinity(0) == (home - {cpu} or {cpu})
    finally:
        os.sched_setaffinity(0, home)
        child.kill()
        child.wait()


def test_host_factor_scales_timings_to_the_reference_speed() -> None:
    assert calib.host_factor(calib.TICK_REF_S) == 1.0
    # A host twice as slow: raw throughput halves, the factor doubles.
    assert calib.host_factor(2 * calib.TICK_REF_S) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        calib.host_factor(0.0)


def test_calibrated_throughput_follows_the_programs_speed_only() -> None:
    def jobs_per_s(n_jobs: int, job_s: float, tick_s: float) -> float:
        return n_jobs / (job_s / calib.host_factor(tick_s))

    base = jobs_per_s(10, 20.0, 0.002)
    # The host slows down 1.5x: jobs and ticks slow alike, the metric holds.
    assert jobs_per_s(10, 30.0, 0.003) == pytest.approx(base)
    # The program gets 2x faster on the same host: the metric doubles.
    assert jobs_per_s(10, 10.0, 0.002) == pytest.approx(2 * base)


# ------------------------------------------------------------ serve split
def test_stage_split_of_canned_frames() -> None:
    frames = [
        (0.020, {"type": "job", "job": "campaign-0123"}),
        (0.020, {"type": "state", "state": "queued"}),
        (0.050, {"type": "state", "state": "running", "lane": 0}),
        (0.060, {"type": "counter", "name": "noc.packets"}),
        (0.300, {"type": "progress", "done": 1, "total": 2}),
        (0.500, {"type": "progress", "done": 2, "total": 2}),
        (0.900, {"type": "done", "state": "done"}),
    ]
    split = serve_load.stage_split(0.0, 0.010, frames, 0.950)
    assert split["submit"] == pytest.approx(0.010)
    assert split["stream_open"] == pytest.approx(0.010)
    assert split["queue_wait"] == pytest.approx(0.030)
    assert split["units"] == pytest.approx(0.450)
    assert split["unit_gaps"] == pytest.approx([0.250, 0.200])
    assert split["unit_count"] == 2
    assert split["finalize"] == pytest.approx(0.400)
    assert split["report"] == pytest.approx(0.050)
    stages = ("submit", "stream_open", "queue_wait", "units", "finalize", "report")
    assert sum(split[s] for s in stages) == pytest.approx(0.950)


def test_stage_split_of_a_cached_job_has_no_execution() -> None:
    frames = [
        (0.02, {"type": "job"}),
        (0.02, {"type": "done", "state": "cached"}),
    ]
    split = serve_load.stage_split(0.0, 0.01, frames, 0.03)
    assert split["queue_wait"] == split["units"] == split["finalize"] == 0.0
    assert split["unit_count"] == 0
    assert split["report"] == pytest.approx(0.01)


def test_server_side_submit_mean_from_metrics_text() -> None:
    text = "\n".join(
        [
            "# TYPE serve_request_ms histogram",
            'serve_request_ms_bucket{endpoint="/submit",le="1"} 3',
            'serve_request_ms_sum{endpoint="/submit"} 12.5',
            'serve_request_ms_count{endpoint="/submit"} 5',
            'serve_request_ms_sum{endpoint="/"} 99',
            'serve_request_ms_count{endpoint="/"} 1',
        ]
    )
    assert serve_load.server_mean_s(text, "/submit") == pytest.approx(0.0025)
    assert serve_load.server_mean_s("", "/submit") == 0.0


# --------------------------------------------------------------- job sets
@pytest.mark.parametrize("make_jobs", [batch.mesh_jobs, batch.soc_jobs])
def test_job_sets_are_seeded(make_jobs) -> None:
    assert make_jobs(7, 30.0) == make_jobs(7, 30.0)
    assert make_jobs(7, 30.0) != make_jobs(8, 30.0)
    ids = [j["id"] for j in make_jobs(7, 30.0)]
    assert len(ids) == len(set(ids))


def test_serve_cold_phase_is_a_fixed_job_count() -> None:
    assert serve_load.cold_jobs(30.0, 2) == 15
    assert serve_load.cold_jobs(120.0, 1) == 120
    assert serve_load.cold_jobs(0.1, 2) == 1


def test_cold_submissions_are_novel_and_seeded() -> None:
    def first(seed: int, n: int) -> list:
        gen = serve_load.cold_submissions(seed)
        return [next(gen) for _ in range(n)]

    subs = first(3, 20)
    assert subs == first(3, 20)
    assert len({s["spec"]["base_seed"] for s in subs}) == 20
    assert subs != first(4, 20)


# ------------------------------------------------------------ serve check
def cold_job(index: int, sha: str, hash16: str = "", error: str = "") -> serve_load.ColdJob:
    return serve_load.ColdJob(
        t0=0.0, index=index, base_seed=1000 + index, t_end=1.0, sha256=sha, error=error,
        report_path=f"/runs/{hash16 or f'{index:016x}'}/report" if not error else "",
    )


def serve_reference(n: int) -> dict:
    return {
        f"cold{i}": {"base_seed": 1000 + i, "hash16": f"{i:016x}", "sha256": f"sha{i}"}
        for i in range(n)
    }


def phases_of(cold: list, warm: list) -> serve_load.Phases:
    return serve_load.Phases(cold=cold, warm=warm, cold_window_s=1.0, warm_window_s=1.0,
                             stats={}, server_submit_s=0.0)


def test_serve_reference_is_keyed_by_the_benchmarks_own_job_id(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    monkeypatch.setattr(verify, "load_reference", lambda workload, seed: serve_reference(2))
    cold = [cold_job(0, "sha0"), cold_job(1, "sha1"), cold_job(2, "sha-unrecorded")]
    report = run.Report()
    assert run.check_serve(report, 1, [phases_of(cold, [])]) == 3
    assert (report.attempted, report.failed) == (3, 0)

    # A change to the service's hashing moves every run's hash16: the
    # same report bytes under another key no longer match.
    rehashed = [cold_job(0, "sha0", hash16="ffffffffffffffff"), cold_job(1, "sha1")]
    report = run.Report()
    assert run.check_serve(report, 1, [phases_of(rehashed, [])]) == 1
    assert (report.attempted, report.failed, report.correct) == (2, 1, False)


def test_serve_warm_requests_fail_by_group(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setattr(verify, "load_reference", lambda workload, seed: None)
    cold = [cold_job(0, "sha0"), cold_job(1, "sha1")]
    warm = [serve_load.WarmRequest(t0=0.0, cold_index=i % 2) for i in range(100)]
    warm[7].error = "HttpError: warm report differs from the cold fetch"
    report = run.Report()
    run.check_serve(report, 9, [phases_of(cold, warm)])
    # Two cold jobs and two warm groups; the failed request fails cold1's group.
    assert (report.attempted, report.failed) == (4, 1)
    assert 1.0 - verify.success_ratio(report.attempted, report.failed) > success_bound()
