#!/usr/bin/env python3
"""The repository benchmark: three workloads through the program's
public entry points, end-to-end metrics, and a traced per-layer run.

  python3 blitzbench/run.py --workload mesh-convergence --seed 1 --seconds 30 --trace 0

Workloads: ``mesh-convergence`` (``run_convergence_trial``), ``soc-pm``
(``run_soc_workload``) and ``serve-campaigns`` (``python -m repro serve
run``, driven over HTTP).  ``--trace 0`` prints every end-to-end metric
of BENCHMARK.json; ``--trace 1`` runs a separate traced run and prints
every per-layer metric.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Every timing is host
time.  The gated ones are reported at a reference host speed: a fixed
reference load ticks alongside the jobs and scales them (``calib.py``).
Simulated statistics are checked, never reported as metrics.

``--record-reference`` re-records the committed outputs of the default
seed (see NOTES.md).  Run from the repository root; nothing outside the
checkout is read or written (scratch files go to ``.blitzbench/``).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calib  # noqa: E402
import host  # noqa: E402
import procs  # noqa: E402
import serve_load  # noqa: E402
import stats  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import verify  # noqa: E402

BENCH = Path(__file__).resolve().parent
BATCH_WORKLOADS = ("mesh-convergence", "soc-pm")
WORKLOADS = BATCH_WORKLOADS + ("serve-campaigns",)

#: Fresh-interpreter starts per run; their median is ``setup_s``.
SETUP_STARTS = 3
#: Passes per run, each in a fresh process (serve: on a fresh server and
#: store).  A batch run's job list is dealt out over its passes, every
#: other job to each, so two processes share the run's work; serve gives
#: each server the next block of cold jobs.  Each pass's start is also a
#: ``setup_s`` sample.  The work is fixed, so it does not depend on the
#: host's speed.
PASSES = {"mesh-convergence": 2, "soc-pm": 2, "serve-campaigns": 2}
#: Nominal (fast-host) seconds of a batch run's job list, as a share of
#: ``--seconds``.  At ``--seconds 30`` the lists are ~15 s (mesh) and
#: ~16 s (soc-pm) nominal, 20-27 s and 15-20 s of host time on a
#: 2-vCPU Xeon host.
LIST_SHARE = {"mesh-convergence": 0.45, "soc-pm": 0.5}
#: Every run ends within this many seconds, hung children included.
RUN_LIMIT_S = 170.0


class Report:
    """What one run prints: human lines, then the JSON result line."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.metrics: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def note(self, text: str) -> None:
        self.lines.append(text)

    def fail(self, reason: str) -> None:
        self.correct = False
        self.note(f"FAIL {reason}")


def load_metric_specs() -> Tuple[List[dict], List[dict]]:
    doc = json.loads((procs.ROOT / "BENCHMARK.json").read_text())
    return doc["end_to_end"], doc["per_layer"]


def host_lines(report: Report, probe_before: float, probe_after: float, steal: float) -> None:
    report.note(
        f"host.steal_share {steal:.4f} ratio   host.probe_s before {probe_before:.4f} s "
        f"after {probe_after:.4f} s (fixed pure-Python loop)"
    )


# ------------------------------------------------------------ batch runs
def batch_child(workload: str, seed: int, seconds: float, mode: str, name: str,
                index: int = 0, passes: int = 1, extra: Tuple[str, ...] = ()) -> procs.Child:
    """A batch process over jobs ``index``, ``index + passes``, ... of
    the run's list."""
    budget = seconds * LIST_SHARE[workload]
    return procs.Child(
        [sys.executable, str(BENCH / "batch.py"), "--workload", workload,
         "--seed", str(seed), "--budget", repr(budget), "--mode", mode,
         "--pass-index", str(index), "--passes", str(passes), *extra],
        name,
    )


def run_batch_child(child: procs.Child, timeout: float) -> Tuple[float, Dict[str, Any]]:
    """(seconds until READY, the child's JSON document)."""
    try:
        ready_s, _ = child.wait_for("READY", timeout=120.0)
        lines = child.finish(timeout=timeout)
    finally:
        child.stop()
    if not lines:
        raise procs.ChildError(f"{child.name}: no result; {child.stderr_tail()}")
    return ready_s, json.loads(lines[-1])


def setup_start(workload: str, seed: int, seconds: float, index: int) -> float:
    child = batch_child(workload, seed, seconds, "setup", f"{workload}-setup{index}")
    try:
        ready_s, _ = child.wait_for("READY", timeout=120.0)
        child.finish(timeout=30.0)
    finally:
        child.stop()
    return ready_s


def check_outputs(report: Report, reference: Optional[Dict[str, Any]],
                  entries: List[Dict[str, Any]], first: Dict[str, Any]) -> int:
    """Verify one pass's jobs against the reference and against the
    first pass that ran each job (``first`` collects those outputs);
    each entry is one attempt.  Returns how many failed."""
    failed = 0
    for entry in entries:
        reason = verify.job_failure(entry, reference)
        if reason is None and first.setdefault(entry["id"], entry["output"]) != entry["output"]:
            reason = "output differs between passes"
        report.attempted += 1
        if reason is not None:
            failed += 1
            report.failed += 1
            report.fail(f"{entry['id']}: {reason}")
    return failed


def check_batch(report: Report, workload: str, seed: int, docs: List[Dict[str, Any]]) -> int:
    """Verify every pass's jobs; each job in each pass is one attempt,
    and a job that two passes ran (the traced run) must agree.  Returns
    how many job runs were verified."""
    reference = verify.load_reference(workload, seed)
    first: Dict[str, Any] = {}
    verified = 0
    for doc in docs:
        verified += len(doc["jobs"]) - check_outputs(report, reference, doc["jobs"], first)
    report.note(
        f"output digest {verify.digest(first.items())} over {len(first)} jobs"
        + (" (checked against reference)" if reference is not None else "")
    )
    return verified


def calib_line(report: Report, summary: Dict[str, float]) -> float:
    """Note one process's reference-load ticks; returns its host factor."""
    factor = calib.host_factor(summary["tick_mean_s"])
    report.note(
        f"reference load: {summary['ticks']} ticks, mean {summary['tick_mean_s'] * 1e3:.4f} ms, "
        f"p50 {summary['tick_p50_s'] * 1e3:.4f} ms, host factor {factor:.4f}"
    )
    return factor


def run_batch(report: Report, workload: str, seed: int, seconds: float) -> None:
    t_begin = time.monotonic()
    docs: List[Dict[str, Any]] = []
    setups: List[float] = []
    passes = PASSES[workload]
    for index in range(passes):
        spent = time.monotonic() - t_begin
        child = batch_child(workload, seed, seconds, "run", f"{workload}-pass{index}", index, passes)
        ready_s, doc = run_batch_child(child, timeout=max(30.0, RUN_LIMIT_S - spent))
        setups.append(ready_s)
        docs.append(doc)
    setups += [setup_start(workload, seed, seconds, i) for i in range(len(docs), SETUP_STARTS)]

    verified = check_batch(report, workload, seed, docs)
    raw_s = ref_s = 0.0
    factors = []
    for index, doc in enumerate(docs):
        job_s = sum(j["elapsed_s"] for j in doc["jobs"])
        report.note(
            f"pass {index}: {len(doc['jobs'])} jobs in {job_s:.3f} s "
            f"({len(doc['jobs']) / job_s:.4f} jobs/s at host speed, not gated)"
        )
        factor = calib_line(report, doc["calib"])
        factors.append(factor)
        raw_s += job_s
        ref_s += job_s / factor
        host_lines(report, doc["probe_before_s"], doc["probe_after_s"], doc["steal_share"])
    run_factor = statistics.fmean(factors)
    report.metrics.update(
        setup_s=stats.median_of_k(setups) / run_factor,
        jobs_per_s=verified / ref_s,
        peak_rss_mb=max(doc["peak_rss_mb"] for doc in docs),
        success_ratio=verify.success_ratio(report.attempted, report.failed),
    )
    report.note(f"setup starts {', '.join(f'{s:.3f}' for s in setups)} s at host speed")
    report.note(
        f"{verified} verified job runs in {raw_s:.3f} s at host speed ({verified / raw_s:.4f} jobs/s, "
        f"not gated), {ref_s:.3f} s at the reference speed"
    )
    report.note(tail_line("jobs, every pass", [j["elapsed_s"] for d in docs for j in d["jobs"]]))


def trace_batch(report: Report, workload: str, seed: int, seconds: float) -> None:
    """The first pass's jobs untraced, then the same jobs traced."""
    t_begin = time.monotonic()
    passes = PASSES[workload]
    child = batch_child(workload, seed, seconds, "run", f"{workload}-untraced", 0, passes)
    _, plain = run_batch_child(child, timeout=RUN_LIMIT_S)
    n = len(plain["jobs"])
    trace_path = procs.WORK / "trace" / f"{workload}-seed{seed}.json"
    child = batch_child(workload, seed, seconds, "trace", f"{workload}-traced", 0, passes,
                        ("--trace-out", str(trace_path)))
    remaining = RUN_LIMIT_S - (time.monotonic() - t_begin)
    _, traced = run_batch_child(child, timeout=max(30.0, remaining))

    check_batch(report, workload, seed, [plain, traced])

    tr = traced["trace"]
    self_s: Dict[str, float] = tr["self_s"]
    counts: Dict[str, int] = tr["counts"]
    wall = traced["window_s"]
    layer_sum = sum(self_s.values())
    scheduled = counts.get("sim.scheduled", 0)
    events = counts.get("sim.events", 0)
    report.metrics.update({
        "sim.events": events,
        "sim.scheduled": scheduled,
        "sim.cancelled_share": (scheduled - events) / scheduled if scheduled else 0.0,
        "sim.self_s": self_s.get("sim", 0.0),
        "noc.packets": counts.get("noc.packets", 0),
        "noc.self_s": self_s.get("noc", 0.0),
        "noc.topology_calls": counts.get("noc.topology_calls", 0),
        "noc.topology_s": self_s.get("noc.topology", 0.0),
        "core.exchanges": counts.get("core.exchanges", 0),
        "core.self_s": self_s.get("core", 0.0),
        "core.build_s": self_s.get("core.build", 0.0),
        "power.vf_calls": counts.get("power.vf_calls", 0),
        "power.self_s": self_s.get("power", 0.0),
        "soc.self_s": self_s.get("soc", 0.0),
        "soc.tasks": counts.get("soc.tasks", 0),
        "dvfs.self_s": self_s.get("dvfs", 0.0),
        "baselines.self_s": self_s.get("baselines", 0.0),
        "host.steal_share": traced["steal_share"],
        "host.probe_s": (traced["probe_before_s"] + traced["probe_after_s"]) / 2.0,
        "host.tick_s": plain["calib"]["tick_mean_s"],
        "trace.overhead": wall / plain["window_s"] if plain["window_s"] else 0.0,
        "trace.residual_s": wall - layer_sum,
    })
    report.note(f"traced {n} jobs: untraced {plain['window_s']:.3f} s, traced {wall:.3f} s")
    for layer in tracer_mod.LAYERS:
        value = self_s.get(layer, 0.0)
        report.note(f"  self {layer:<14s} {value:9.3f} s  {100.0 * value / wall if wall else 0.0:5.1f}%")
    report.note(
        f"layers sum {layer_sum:.3f} s + benchmark-loop residual {wall - layer_sum:.3f} s "
        f"= traced wall {wall:.3f} s"
    )
    for hook in tr["absent"]:
        report.note(f"hook absent: {hook}")
    report.note(f"chrome trace: {trace_path.relative_to(procs.ROOT)} ({tr['spans']} spans)")
    host_lines(report, traced["probe_before_s"], traced["probe_after_s"], traced["steal_share"])


# ------------------------------------------------------------ serve runs
def serve_store(tag: str) -> Path:
    path = procs.WORK / "serve" / tag
    shutil.rmtree(path, ignore_errors=True)
    return path


def cold_entry(job: serve_load.ColdJob) -> Dict[str, Any]:
    """A cold job as a verifiable job: its benchmark-side id (the index
    in the seed's submission order) and what the service answered."""
    return {"id": f"cold{job.index}", "ok": not job.error, "error": job.error,
            "output": {"base_seed": job.base_seed, "hash16": job.hash16, "sha256": job.sha256}}


def check_serve(report: Report, seed: int, passes: List[serve_load.Phases]) -> int:
    """Verify every pass's cold jobs and warm answers; returns how many
    cold job runs were verified.  Each cold job is one attempt, and so
    are the warm requests that resubmit one cold job's spec: a failed
    request fails its group."""
    reference = verify.load_reference("serve-campaigns", seed)
    first: Dict[str, Any] = {}
    verified = 0
    for phases in passes:
        entries = [cold_entry(job) for job in phases.cold]
        verified += len(entries) - check_outputs(report, reference, entries, first)
        groups: Dict[int, List[str]] = {}
        for w in phases.warm:
            groups.setdefault(w.cold_index, []).append(w.error)
        for index, errors in sorted(groups.items()):
            bad = [e for e in errors if e]
            report.attempted += 1
            if bad:
                report.failed += 1
                report.fail(f"warm resubmits of cold{index} ({len(bad)} of {len(errors)} failed): {bad[0]}")
    cold = [job for phases in passes for job in phases.cold]
    report.note(
        f"output digest {verify.digest((f'cold{j.index}', j.sha256) for j in cold)} "
        f"over {len(cold)} cold reports" + (" (checked against reference)" if reference is not None else "")
    )
    return verified


def tail_line(label: str, samples: List[float]) -> str:
    """Median plus every tail percentile the sample count supports."""
    parts = [f"p50 {statistics.median(samples):.4f} s"]
    for p in stats.supported_tails(len(samples)):
        parts.append(f"p{p:g} {stats.percentile(samples, p):.4f} s")
    return f"{label}: n={len(samples)} " + " ".join(parts)


def run_serve(report: Report, seed: int, seconds: float) -> None:
    """The seed's cold jobs dealt out in turn to two fresh servers and
    stores, each pass followed by its share of the warm phase.  Every
    cold job is a different campaign, so a run averages over twice as
    many seeded inputs as one server would see.  Each server runs on a
    CPU of its own and this client on the others; the reference load
    ticks in this client, moved onto the server's CPU for each tick, so
    it sees that CPU's speed and the cache the server leaves behind.
    Ticked on the client's own CPU it missed slow stretches of the
    server's (NOTES.md)."""
    passes: List[serve_load.Phases] = []
    startups: List[float] = []
    rss: List[float] = []
    summaries: List[Dict[str, float]] = []
    n_passes = PASSES["serve-campaigns"]
    home = os.sched_getaffinity(0)
    probe_before, stat_before = host.probe_s(), host.cpu_times()
    for index in range(n_passes):
        server = serve_load.Server(str(serve_store(f"run-{index}")), f"serve-pass{index}")
        sampler = calib.Sampler(cpu=host.pin_apart(server.pid))
        cold_n = serve_load.cold_jobs(seconds, n_passes)
        try:
            sampler.start()
            passes.append(asyncio.run(serve_load.drive(
                server.port, seed, cold_n, warm_s=seconds * serve_load.WARM_SHARE / n_passes,
                first=index * cold_n,
            )))
            rss.append(host.vm_hwm_mib(server.pid))
        finally:
            sampler.stop()
            server.stop()
            os.sched_setaffinity(0, home)
        summaries.append(sampler.summary())
        startups.append(server.startup_s)
    stat_after, probe_after = host.cpu_times(), host.probe_s()
    for index in range(n_passes, SETUP_STARTS):
        extra = serve_load.Server(str(serve_store(f"run-{index}")), f"serve-setup{index}")
        extra.stop()
        startups.append(extra.startup_s)
    shutil.rmtree(procs.WORK / "serve", ignore_errors=True)

    verified = check_serve(report, seed, passes)
    raw_s = ref_s = 0.0
    factors = []
    for index, (phases, summary) in enumerate(zip(passes, summaries)):
        job_s = sum(j.latency_s for j in phases.cold)
        report.note(
            f"pass {index}: {len(phases.cold)} cold jobs in {job_s:.3f} s"
            f" ({len(phases.cold) / job_s if job_s else 0.0:.4f} jobs/s at host speed, not gated),"
            f" {len(phases.warm)} warm requests in {phases.warm_window_s:.3f} s;"
            f" server stats {json.dumps(phases.stats, sort_keys=True)}"
        )
        factor = calib_line(report, summary)
        factors.append(factor)
        raw_s += job_s
        ref_s += job_s / factor
    run_factor = statistics.fmean(factors)
    report.metrics.update(
        setup_s=stats.median_of_k(startups) / run_factor,
        jobs_per_s=verified / ref_s if ref_s else 0.0,
        peak_rss_mb=max(rss),
        success_ratio=verify.success_ratio(report.attempted, report.failed),
    )
    report.note(f"server starts {', '.join(f'{s:.3f}' for s in startups)} s at host speed")
    report.note(
        f"{verified} verified cold jobs in {raw_s:.3f} s at host speed "
        f"({verified / raw_s if raw_s else 0.0:.4f} jobs/s, not gated), {ref_s:.3f} s at the reference speed"
    )
    # The cold and warm medians are printed, not gated: a median of short
    # samples moves with the host's speed (see NOTES.md).
    cold_lat = [j.latency_s for p in passes for j in p.cold if not j.error]
    warm_lat = [w.latency_s for p in passes for w in p.warm if not w.error]
    if cold_lat:
        report.note(f"job_p50_s {statistics.median(cold_lat):.6g} s (median cold job, not gated)")
        report.note(tail_line("cold jobs, every pass", cold_lat))
    if warm_lat:
        report.note(f"warm_p50_s {statistics.median(warm_lat):.6g} s (median warm round trip, not gated)")
        report.note(tail_line("warm round trips, every pass", warm_lat))
    host_lines(report, probe_before, probe_after, host.steal_share(stat_before, stat_after))


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def trace_serve(report: Report, seed: int, seconds: float) -> None:
    """One server, one cold and one warm phase, with every stream frame
    stamped on arrival and each cold job split into stages.  Nothing on
    the serve side is wrapped, so ``trace.overhead`` is 1."""
    server = serve_load.Server(str(serve_store("trace")), "serve-traced")
    home = os.sched_getaffinity(0)
    sampler = calib.Sampler(cpu=host.pin_apart(server.pid))
    try:
        probe_before, stat_before = host.probe_s(), host.cpu_times()
        sampler.start()
        traced = asyncio.run(serve_load.drive(
            server.port, seed, serve_load.cold_jobs(seconds, 1),
            warm_s=seconds * serve_load.WARM_SHARE,
        ))
        sampler.stop()
        stat_after, probe_after = host.cpu_times(), host.probe_s()
    finally:
        sampler.stop()
        server.stop()
        os.sched_setaffinity(0, home)
    shutil.rmtree(procs.WORK / "serve", ignore_errors=True)

    check_serve(report, seed, [traced])

    spans: List[list] = []
    origin = traced.cold[0].t0 if traced.cold else time.perf_counter()
    totals: Dict[str, float] = {}
    splits = []
    for job in traced.cold:
        split = serve_load.stage_split(job.t0, job.t_submitted, job.frames, job.t_end)
        splits.append(split)
        root = len(spans)
        job_id = job.hash16 or "?"
        spans.append([f"cold {job_id}", "serve", job.t0, job.t_end, None, job_id, None])
        t = job.t0
        for stage in ("submit", "stream_open", "queue_wait", "units", "finalize", "report"):
            category = "campaign" if stage in ("units", "finalize") else "serve"
            spans.append([stage, category, t, t + split[stage], root, job_id, None])
            t += split[stage]
            totals[stage] = totals.get(stage, 0.0) + split[stage]
    for req in traced.warm:
        spans.append(["warm", "serve", req.t0, req.t_end, None, None, {"outcome": req.outcome}])
        totals["warm_submit"] = totals.get("warm_submit", 0.0) + (req.t_submitted - req.t0)
        totals["warm_report"] = totals.get("warm_report", 0.0) + (req.t_end - req.t_submitted)
    trace_path = procs.WORK / "trace" / f"serve-campaigns-seed{seed}.json"
    tracer_mod.write_chrome_trace(trace_path, spans, origin, "blitzbench serve client")

    ok_warm = [w for w in traced.warm if not w.error]
    warm_lat = [w.latency_s for w in ok_warm]
    unit_gaps = [g for s in splits for g in s["unit_gaps"]]  # type: ignore[union-attr]
    wall = traced.cold_window_s + traced.warm_window_s
    stage_sum = sum(totals.values())
    report.metrics.update({
        "campaign.units": int(sum(s["unit_count"] for s in splits)),
        "campaign.unit_s": _mean(unit_gaps),
        "campaign.finalize_s": _mean([s["finalize"] for s in splits]),
        "serve.cold_submit_s": _mean([s["submit"] for s in splits]),
        "serve.queue_wait_s": _mean([s["queue_wait"] for s in splits]),
        "serve.report_s": _mean([s["report"] for s in splits]),
        "serve.warm_submit_s": _mean([w.t_submitted - w.t0 for w in ok_warm]),
        "serve.warm_report_s": _mean([w.t_end - w.t_submitted for w in ok_warm]),
        "serve.server_submit_s": traced.server_submit_s,
        "serve.executed": traced.stats.get("executed", 0),
        "serve.deduped": traced.stats.get("deduped", 0),
        "serve.cache_hits": traced.stats.get("cache_hits", 0),
        "serve.failed": traced.stats.get("failed", 0),
        "serve.reuse_share": (
            sum(1 for w in traced.warm if w.outcome in ("deduped", "cached")) / len(traced.warm)
            if traced.warm else 0.0
        ),
        "serve.warm_samples": len(warm_lat),
        "serve.warm_p90_s": (
            stats.percentile(warm_lat, 90.0) if stats.supported(len(warm_lat), 90.0) else 0.0
        ),
        "serve.warm_p99_s": (
            stats.percentile(warm_lat, 99.0) if stats.supported(len(warm_lat), 99.0) else 0.0
        ),
        "host.steal_share": host.steal_share(stat_before, stat_after),
        "host.probe_s": (probe_before + probe_after) / 2.0,
        "host.tick_s": sampler.summary()["tick_mean_s"],
        "trace.overhead": 1.0,
        "trace.residual_s": wall - stage_sum,
    })
    report.note(
        f"traced {len(traced.cold)} cold jobs + {len(traced.warm)} warm requests in {wall:.3f} s"
    )
    for stage, value in sorted(totals.items()):
        report.note(f"  stage {stage:<12s} {value:9.3f} s  {100.0 * value / wall if wall else 0.0:5.1f}%")
    report.note(
        f"stages sum {stage_sum:.3f} s + client residual {wall - stage_sum:.3f} s "
        f"= traced wall {wall:.3f} s"
    )
    if warm_lat:
        report.note(tail_line("warm round trips", warm_lat))
    report.note(f"chrome trace: {trace_path.relative_to(procs.ROOT)} ({len(spans)} spans)")
    host_lines(report, probe_before, probe_after, host.steal_share(stat_before, stat_after))


# ------------------------------------------------------------ references
def record_reference(workload: str, seed: int, seconds: float) -> Path:
    """Run the workload once and commit its outputs as the reference."""
    if workload in BATCH_WORKLOADS:
        child = batch_child(workload, seed, seconds, "run", f"{workload}-record")
        _, doc = run_batch_child(child, timeout=10 * seconds + 120.0)
        bad = [j["id"] for j in doc["jobs"] if not j["ok"]]
        if bad:
            raise SystemExit(f"cannot record: jobs failed: {bad}")
        outputs = {j["id"]: j["output"] for j in doc["jobs"]}
    else:
        server = serve_load.Server(str(serve_store("record")), "serve-record")
        try:
            phases = asyncio.run(serve_load.drive(server.port, seed, serve_load.cold_jobs(seconds, 1)))
        finally:
            server.stop()
        shutil.rmtree(procs.WORK / "serve", ignore_errors=True)
        if any(j.error for j in phases.cold):
            raise SystemExit("cannot record: a cold job failed")
        outputs = {}
        for job in phases.cold:
            entry = cold_entry(job)
            outputs[entry["id"]] = entry["output"]
    return verify.write_reference(workload, seed, outputs)


# ------------------------------------------------------------------ main
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="re-record the committed outputs for --seed")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (procs.SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {procs.SRC / 'repro'}", file=sys.stderr)
        return 2

    if args.record_reference:
        path = record_reference(args.workload, args.seed, args.seconds)
        print(f"wrote {path.relative_to(procs.ROOT)}")
        return 0

    end_to_end, per_layer = load_metric_specs()
    wanted = per_layer if args.trace else end_to_end
    report = Report()
    try:
        if args.workload in BATCH_WORKLOADS:
            (trace_batch if args.trace else run_batch)(report, args.workload, args.seed, args.seconds)
        else:
            (trace_serve if args.trace else run_serve)(report, args.seed, args.seconds)
    except (procs.ChildError, serve_load.HttpError, OSError, ValueError, KeyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if report.attempted < 1:
        print("error: no job was attempted", file=sys.stderr)
        return 1

    for line in report.lines:
        print(line)
    metrics = {}
    unmeasured = []
    for spec in wanted:
        name = spec["name"]
        value = report.metrics.get(name)
        if value is None:
            value = 0
            unmeasured.append(name)
        else:
            print(f"{name:<24s} {value:>14.6g} {spec['unit']:<6s} ({spec['better']} is better)")
        metrics[name] = {"value": value, "unit": spec["unit"]}
    if unmeasured:
        print(f"reported as 0, no such layer on {args.workload}: {', '.join(unmeasured)}")
    print(json.dumps({
        "correct": report.correct and report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
