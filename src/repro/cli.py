"""Command-line interface: run SoC workloads, convergence trials, and
paper-figure experiments without writing any code.

Examples
--------
Run BlitzCoin on the 3x3 autonomous-vehicle SoC::

    python -m repro soc-run --soc 3x3 --workload av-par --scheme BC

Compare a convergence trial across algorithm variants::

    python -m repro convergence --dim 8 --trials 5 --variant preferred

Regenerate a paper figure's rows::

    python -m repro figure fig17

A command that fails prints one ``error:`` line on stderr and exits 2:
commands raise, and :func:`main` reports.  A command writes every file
it was asked for before it prints the lines that follow its run, so a
reader that closes stdout early (``| head -1``) cannot stop a
requested file from being written.  ``bench run`` and ``campaign run
--verbose`` are the exceptions: they print progress while they run.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.analysis.__main__ import add_lint_arguments, run_lint
from repro.campaign.errors import CampaignError
from repro.campaign.executor import run_campaign
from repro.campaign.presets import get_preset
from repro.campaign.spec import CampaignSpec, load_campaign_spec
from repro.campaign.store import CampaignStore
from repro.core.config import (
    plain_four_way,
    plain_one_way,
    preferred_embodiment,
)
from repro.core.runner import TrialResult, run_convergence_trial
from repro.faults.plan import (
    FaultPlan,
    FaultPlanError,
    LinkFaultRates,
    TileFaultEvent,
    load_fault_plan,
)
from repro.fuzz.cli import add_fuzz_parser
from repro.obs.export import (
    summary_lines,
    write_chrome_trace,
    write_jsonl,
    write_summary,
    write_trace,
)
from repro.obs.runtime import observing
from repro.obs.sink import Observation
from repro.serve.cli import add_serve_parser
from repro.soc.executor import ExecutorError, SocRunResult, WorkloadExecutor
from repro.soc.pm import PMKind, build_pm
from repro.soc.presets import soc_3x3, soc_4x4, soc_6x6_chip
from repro.soc.soc import Soc
from repro.workloads.apps import (
    autonomous_vehicle_dependent,
    autonomous_vehicle_parallel,
    computer_vision_dependent,
    computer_vision_parallel,
    pm_cluster_workload,
)

SOCS: Dict[str, Callable] = {
    "3x3": soc_3x3,
    "4x4": soc_4x4,
    "6x6": soc_6x6_chip,
}

WORKLOADS: Dict[str, Callable] = {
    "av-par": autonomous_vehicle_parallel,
    "av-dep": autonomous_vehicle_dependent,
    "cv-par": computer_vision_parallel,
    "cv-dep": computer_vision_dependent,
    "pm7": lambda: pm_cluster_workload(7),
    "pm3": lambda: pm_cluster_workload(3),
}

SCHEMES: Dict[str, PMKind] = {k.value: k for k in PMKind}

VARIANTS: Dict[str, Callable] = {
    "1way": plain_one_way,
    "4way": plain_four_way,
    "preferred": preferred_embodiment,
}

#: Default budget per SoC: the paper's 30%-of-combined-maximum points.
DEFAULT_BUDGETS = {"3x3": 120.0, "4x4": 450.0, "6x6": 180.0}

#: The experiment ``report`` runs when none is named.
DEFAULT_REPORT = "fig16"


class CliError(Exception):
    """A command failure that :func:`main` prints as one ``error:`` line."""


def _budget_arg(text: str) -> float:
    """argparse type of ``--budget``: a positive, finite number of mW."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be a positive, finite number of mW, got {text!r}"
        )
    return value


def _budget_mw(args: argparse.Namespace) -> float:
    """``--budget``, or the SoC's default budget when it is not given."""
    return DEFAULT_BUDGETS[args.soc] if args.budget is None else args.budget


def _run_soc(
    args: argparse.Namespace, budget_mw: float
) -> Tuple[Soc, SocRunResult]:
    """``(soc, result)``: ``--workload`` on ``--soc`` under ``--scheme``.

    Raises ``ValueError`` for a budget the PM rejects and
    ``ExecutorError`` for a run that cannot finish.
    """
    soc = Soc(SOCS[args.soc]())
    pm = build_pm(SCHEMES[args.scheme], soc, budget_mw)
    return soc, WorkloadExecutor(soc, WORKLOADS[args.workload](), pm).run()


def _trials(
    args: argparse.Namespace, plan: Optional[FaultPlan], sink
) -> Iterator[Tuple[int, TrialResult]]:
    """``(k, result)`` for each of the ``--trials`` seeded convergence trials.

    Trial ``k`` opens epoch ``trial<k>`` on ``sink`` (when there is one)
    and runs at seed ``--seed + k`` under ``plan`` reseeded with ``+ k``,
    an independent, seed-exact fault stream per trial.  ``plan=None``
    installs no injector at all.
    """
    config = VARIANTS[args.variant]()
    for k in range(args.trials):
        if sink is not None:
            sink.epoch(f"trial{k}")
        trial_config = config
        if plan is not None:
            trial_config = dataclasses.replace(
                config, fault_plan=plan.with_seed(plan.seed + k)
            )
        yield k, run_convergence_trial(
            args.dim, trial_config, seed=args.seed + k, threshold=args.threshold
        )


def _write(what: str, write: Callable[..., Path], *args) -> Path:
    """``write(*args)``, its failure raised as ``cannot write <what>``."""
    try:
        return write(*args)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot write {what}: {exc}") from exc


def _print_lines(lines: Iterable[str]) -> None:
    for line in lines:
        print(line)


def _write_trace_outputs(session: Observation, out_dir: str) -> List[str]:
    """Write trace.json, events.jsonl and summary.txt into ``out_dir``;
    returns their ``wrote`` lines."""
    out = Path(out_dir)
    return [
        f"wrote {_write('trace outputs', writer, session, out / name)}"
        for writer, name in (
            (write_chrome_trace, "trace.json"),
            (write_jsonl, "events.jsonl"),
            (write_summary, "summary.txt"),
        )
    ]


def _obs_session(
    args: argparse.Namespace, label: str
) -> Optional[Observation]:
    """An Observation when ``--obs``/``--trace-out`` asked for one."""
    if args.trace_out or args.obs:
        return Observation(label=label)
    return None


def _finish_obs(
    session: Optional[Observation], args: argparse.Namespace
) -> List[str]:
    """Write the ``--trace-out`` files; returns the lines that follow
    the results: their ``wrote`` lines, then the ``--obs`` summary."""
    lines: List[str] = []
    if session is None:
        return lines
    if args.trace_out:
        lines += _write_trace_outputs(session, args.trace_out)
    if args.obs:
        lines += ["", *summary_lines(session)]
    return lines


def cmd_soc_run(args: argparse.Namespace) -> int:
    session = _obs_session(args, f"soc-run-{args.soc}-{args.scheme}")
    budget = _budget_mw(args)
    with observing(session) if session is not None else nullcontext():
        soc, result = _run_soc(args, budget)
        if session is not None:
            soc.noc.stats.publish(session.registry, soc.sim.now)
    tail = _finish_obs(session, args)
    print(f"soc={result.soc_name} scheme={args.scheme} budget={budget} mW")
    print(f"makespan      {result.makespan_us:10.1f} us")
    print(f"response      {result.mean_response_us:10.2f} us (mean)")
    print(f"peak power    {result.peak_power_mw():10.1f} mW")
    print(f"avg power     {result.average_power_mw():10.1f} mW")
    print(f"utilization   {result.budget_utilization() * 100:10.1f} %")
    print(f"energy        {result.energy_mj() * 1000:10.3f} uJ")
    _print_lines(tail)
    return 0


def _build_fault_plan(args: argparse.Namespace) -> Optional[FaultPlan]:
    """The FaultPlan of ``--plan`` or of the rate flags; None when null."""
    try:
        if args.plan:
            plan = load_fault_plan(args.plan)
            if args.fault_seed is not None:
                plan = plan.with_seed(args.fault_seed)
        else:
            events: Tuple[TileFaultEvent, ...] = ()
            if args.kill_tile is not None:
                events = (
                    TileFaultEvent(
                        cycle=args.kill_at, tile=args.kill_tile, action="kill"
                    ),
                )
            plan = FaultPlan(
                seed=args.fault_seed if args.fault_seed is not None else 0,
                link=LinkFaultRates(
                    drop=args.rate,
                    duplicate=args.duplicate_rate,
                    corrupt=args.corrupt_rate,
                    delay=args.delay_rate,
                    max_delay_cycles=args.max_delay,
                ),
                tile_events=events,
            )
    except FaultPlanError as exc:
        raise CliError(f"invalid fault plan: {exc}") from exc
    return None if plan.is_null else plan


def cmd_trials(args: argparse.Namespace) -> int:
    """``convergence`` and ``faults``: seeded trials, or the fault sweep.

    ``convergence`` has no fault flags, and a null plan from ``faults``
    installs no injector either, so at the same seeds the two print the
    same trial lines, bit for bit.
    """
    faults = args.command == "faults"
    if faults and args.sweep:
        # A flag counts as given when its value is not its default,
        # the test argparse itself applies to exclusive options.
        bare = vars(build_parser().parse_args(["faults"]))
        unread = [
            "--" + dest.replace("_", "-")
            for dest, value in vars(args).items()
            if dest not in ("dim", "trials", "sweep") and value != bare[dest]
        ]
        if unread:
            raise CliError(
                f"--sweep reads only --dim and --trials, not {' '.join(unread)}"
            )
        from repro.experiments import fault_sweep

        result = fault_sweep.run(d=args.dim, trials=args.trials)
        _print_lines(fault_sweep.format_rows(result))
        return 0
    plan = _build_fault_plan(args) if faults else None
    session = _obs_session(args, f"{args.command}-d{args.dim}")
    lines: List[str] = []
    cycles, packets = [], []
    lost = reconciled = discarded = timeouts = 0
    with observing(session) if session is not None else nullcontext():
        for k, r in _trials(args, plan, session):
            lost += r.coins_lost
            reconciled += r.coins_reconciled
            discarded += r.packets_discarded
            timeouts += r.timeouts
            if not r.converged:
                lines.append(f"trial {k}: DID NOT CONVERGE")
                continue
            cycles.append(r.cycles)
            packets.append(r.packets)
            lines.append(
                f"trial {k}: {r.cycles:8d} cycles  {r.packets:8d} packets  "
                f"start_err={r.start_error:6.2f} final_err={r.final_error:5.2f}"
            )
    if cycles:
        lines.append(
            f"mean: {statistics.mean(cycles):10.0f} cycles  "
            f"{statistics.mean(packets):10.0f} packets  "
            f"({args.variant}, d={args.dim}, N={args.dim ** 2})"
        )
    if plan is not None:
        lines.append(
            f"faults: discarded={discarded} coins_lost={lost} "
            f"reconciled={reconciled} timeouts={timeouts}"
        )
    lines += _finish_obs(session, args)
    _print_lines(lines)
    return 0 if cycles else 1


def cmd_trace(args: argparse.Namespace) -> int:
    """Run one experiment under full observability and export the trace."""
    session = Observation(label=f"trace-{args.experiment}")
    lines: List[str] = []
    with observing(session):
        if args.experiment == "convergence":
            for k, r in _trials(args, None, session):
                status = f"{r.cycles} cycles" if r.converged else "DID NOT CONVERGE"
                lines.append(f"trial {k}: {status}  {r.packets} packets")
        else:
            soc, result = _run_soc(args, _budget_mw(args))
            soc.noc.stats.publish(session.registry, soc.sim.now)
            lines.append(
                f"soc={result.soc_name} scheme={args.scheme} "
                f"makespan={result.makespan_us:.1f} us"
            )
    wrote = _write_trace_outputs(session, args.out)
    _print_lines([*lines, *summary_lines(session), "", *wrote])
    print("open trace.json in ui.perfetto.dev or chrome://tracing")
    return 0


#: Default on-disk location of the campaign result store.
DEFAULT_CAMPAIGN_STORE = ".blitzcoin-campaigns"


def _campaign_spec(args: argparse.Namespace) -> CampaignSpec:
    """The spec named by ``--spec FILE`` or ``--preset NAME``."""
    if args.spec:
        return load_campaign_spec(args.spec)
    return get_preset(args.preset)


def cmd_campaign_run(args: argparse.Namespace) -> int:
    """Run (or resume) a campaign; cached units are never re-executed."""
    spec = _campaign_spec(args)
    store = CampaignStore(args.store)
    session = _obs_session(args, f"campaign-{spec.name}")

    def progress(done: int, total: int, unit, cached: bool) -> None:
        if args.verbose:
            tag = "cached  " if cached else "executed"
            print(
                f"[{done:4d}/{total}] {tag} seed={unit.seed} "
                f"unit={unit.unit_hash[:12]}"
            )

    with observing(session) if session is not None else nullcontext():
        result = run_campaign(
            spec,
            store=store,
            workers=args.workers,
            verify_units=args.verify,
            fresh=args.fresh,
            progress=progress,
        )
    tail: List[str] = []
    if args.csv:
        from repro.report.campaign_export import export_campaign_csv

        tail.append(f"wrote {_write('CSV', export_campaign_csv, result, args.csv)}")
    tail += _finish_obs(session, args)
    print(f"campaign {spec.name}  kind={spec.kind}  spec={spec.spec_hash[:16]}")
    print(
        f"units total={result.total} cached={result.cached} "
        f"executed={result.executed} verified={result.verified} "
        f"workers={result.workers}"
    )
    print(f"store {store.spec_dir(spec)}")
    _print_lines(tail)
    return 0


def _campaign_status_all(store: CampaignStore) -> int:
    """Store-wide status: one line per spec directory (rc 1 on damage).

    This is the same scan the serve layer's ``/queue`` view returns as
    JSON (:meth:`CampaignStore.scan_all`).
    """
    entries = store.scan_all()
    print(f"store {store.root}  specs={len(entries)}")
    rc = 0
    for entry in entries:
        if entry.error is not None:
            print(f"{entry.dir_name}  error: {entry.error}")
            rc = 1
            continue
        status = entry.status
        state = "complete" if status.complete else "resumable"
        print(
            f"{entry.dir_name}  {entry.name}  "
            f"total={status.total} done={status.done} "
            f"missing={status.missing} corrupt={len(status.corrupt)}  "
            f"{state}{'  report' if entry.has_report else ''}"
        )
    return rc


def cmd_campaign_status(args: argparse.Namespace) -> int:
    """Report done / missing / corrupt artifact counts for a spec."""
    if not args.spec and not args.preset:
        return _campaign_status_all(CampaignStore(args.store))
    spec = _campaign_spec(args)
    store = CampaignStore(args.store)
    status = store.scan(spec)
    manifest = store.load_manifest(spec)
    print(f"campaign {spec.name}  kind={spec.kind}  spec={spec.spec_hash[:16]}")
    print(
        f"units total={status.total} done={status.done} "
        f"missing={status.missing} corrupt={len(status.corrupt)}"
    )
    for path in status.corrupt:
        print(f"corrupt: {path}")
    if manifest is None:
        print("state: never run in this store")
    else:
        print("state: complete" if status.complete else "state: resumable")
    return 0


def cmd_campaign_clean(args: argparse.Namespace) -> int:
    """Remove one spec's artifacts, or the whole store with ``--all``."""
    store = CampaignStore(args.store)
    if args.all:
        removed = store.clean_all()
        print(f"removed store {store.root}" if removed else "store is empty")
        return 0
    spec = _campaign_spec(args)
    removed = store.clean(spec)
    target = store.spec_dir(spec)
    print(f"removed {target}" if removed else f"nothing stored at {target}")
    return 0


def _build_report(args: argparse.Namespace):
    """The RunReport for the requested experiment (monitors enabled)."""
    from repro.obs.monitor import MonitorSet, default_monitors
    from repro.report.run_report import convergence_report, soc_report

    if args.experiment == "fig16":
        from repro.experiments.fig16_power_traces import run_reported

        return run_reported(SCHEMES[args.scheme], args.mode)
    if args.experiment == "soc":
        budget = _budget_mw(args)
        monitors = MonitorSet(
            default_monitors(budget),
            Observation(f"report-soc-{args.soc}-{args.scheme}"),
        )
        with observing(monitors):
            soc, result = _run_soc(args, budget)
        return soc_report(
            result,
            label=f"soc-{args.soc}-{args.workload}-{args.scheme}",
            monitors=monitors,
            grid=(soc.config.width, soc.config.height),
        )
    monitors = MonitorSet(
        default_monitors(), Observation(f"report-convergence-d{args.dim}")
    )
    with observing(monitors):
        results = [r for _, r in _trials(args, None, monitors)]
    from repro.campaign.spec import encode_config

    return convergence_report(
        results,
        label=f"convergence-d{args.dim}-{args.variant}",
        d=args.dim,
        config=encode_config(VARIANTS[args.variant]()),
        monitors=monitors,
    )


def cmd_report(args: argparse.Namespace) -> int:
    """Run one experiment under the online monitors and write its
    RunReport (and optionally the self-contained HTML dashboard)."""
    from repro.report.run_report import write_run_report

    report = _build_report(args)
    wrote = [f"wrote {_write('report', write_run_report, report, args.out)}"]
    if args.html:
        from repro.report.dashboard import write_dashboard

        wrote.append(f"wrote {_write('report', write_dashboard, report, args.html)}")
    alerts = sum(report.alert_counts.values())
    print(
        f"report {report.label}  kind={report.kind}  "
        f"config={report.config_hash[:16]}  alerts={alerts}"
    )
    _print_lines(wrote)
    return 0


def _resolve_report_path(raw: str) -> Path:
    """A report path; a directory means its ``report.json`` (the
    campaign-store layout)."""
    path = Path(raw)
    return path / "report.json" if path.is_dir() else path


def cmd_diff(args: argparse.Namespace) -> int:
    """Compare two RunReports; rc 3 when the candidate regressed."""
    from repro.report.diff import (
        diff_reports,
        format_diff_table,
        load_thresholds,
    )
    from repro.report.run_report import load_run_report

    thresholds = load_thresholds(args.thresholds) if args.thresholds else None
    baseline = load_run_report(_resolve_report_path(args.baseline))
    candidate = load_run_report(_resolve_report_path(args.candidate))
    diff = diff_reports(baseline, candidate, thresholds)
    _print_lines(format_diff_table(diff, only_changed=args.only_changed))
    return 3 if diff.regressed else 0


def cmd_figure(args: argparse.Namespace) -> int:
    import repro.experiments as experiments

    module = getattr(experiments, args.name, None)
    if module is None:
        candidates = [m for m in experiments.__all__ if args.name in m]
        if len(candidates) != 1:
            raise CliError(
                f"unknown figure {args.name!r}; available: "
                f"{', '.join(experiments.__all__)}"
            )
        module = getattr(experiments, candidates[0])
    _print_lines(module.format_rows(module.run()))
    return 0


def _bench_selection(args: argparse.Namespace):
    """The benchmarks named by ``--bench`` or ``--suite``."""
    from repro.perf.registry import REGISTRY, PerfError, load_builtin_suites

    load_builtin_suites()
    if getattr(args, "bench", None):
        return [REGISTRY.get(name) for name in args.bench]
    benches = REGISTRY.suite(args.suite)
    if not benches:
        raise PerfError(
            f"no benchmarks in suite {args.suite!r}; known suites: "
            f"{', '.join(REGISTRY.suite_names())}"
        )
    return benches


def cmd_bench_list(args: argparse.Namespace) -> int:
    """List registered benchmarks, one line each."""
    from repro.perf.registry import REGISTRY, load_builtin_suites

    load_builtin_suites()
    names = REGISTRY.names()
    if not names:
        print("no benchmarks registered")
        return 0
    width = max(len(n) for n in names)
    for name in names:
        b = REGISTRY.get(name)
        extras = []
        if b.counters:
            extras.append(f"counters={len(b.counters)}")
        if b.profile:
            extras.append("profile")
        suffix = f"  [{', '.join(extras)}]" if extras else ""
        print(
            f"{name:<{width}}  suites={','.join(b.suites)}{suffix}  "
            f"{b.description}".rstrip()
        )
    return 0


def cmd_bench_run(args: argparse.Namespace) -> int:
    """Run a suite and write its ``BENCH_<suite>.json`` artifact."""
    from repro.perf.artifact import bench_artifact, write_bench_artifact
    from repro.perf.harness import run_suite_benchmarks

    benches = _bench_selection(args)

    def progress(i: int, n: int, bench) -> None:
        print(f"[{i + 1}/{n}] {bench.name}", flush=True)

    results = run_suite_benchmarks(
        benches,
        reps=args.reps,
        warmup=args.warmup,
        profile=not args.no_profile,
        progress=progress if not args.quiet else None,
    )
    doc = bench_artifact(args.suite, results)
    width = max(len(r.name) for r in results)
    for r in results:
        best = min(r.per_rep_s) * 1000
        print(
            f"{r.name:<{width}}  min={best:9.1f} ms  reps={r.reps}  "
            f"metrics={len(r.metrics)} counters={len(r.counters)}"
        )
    out = args.out or f"BENCH_{args.suite}.json"
    print(f"wrote {_write('artifact', write_bench_artifact, doc, out)}")
    return 0


def cmd_bench_compare(args: argparse.Namespace) -> int:
    """Diff two bench artifacts; rc 3 when the candidate regressed."""
    from repro.perf.artifact import (
        bench_thresholds,
        compare_bench_artifacts,
        flat_bench_metrics,
        load_bench_artifact,
    )
    from repro.report.diff import format_diff_table, load_thresholds

    baseline = load_bench_artifact(args.baseline)
    candidate = load_bench_artifact(args.candidate)
    if args.thresholds:
        policy = load_thresholds(args.thresholds)
    else:
        keys = sorted(
            set(flat_bench_metrics(baseline))
            | set(flat_bench_metrics(candidate))
        )
        walls = {"wall_rel": args.wall_rel, "wall_abs": args.wall_abs}
        policy = bench_thresholds(
            keys, **{k: v for k, v in walls.items() if v is not None}
        )
    diff = compare_bench_artifacts(baseline, candidate, policy)
    _print_lines(format_diff_table(diff, only_changed=args.only_changed))
    return 3 if diff.regressed else 0


def cmd_bench_profile(args: argparse.Namespace) -> int:
    """Phase-profile one benchmark and print where the time went."""
    from repro.perf.harness import call_benchmark
    from repro.perf.phase import (
        PhaseProfiler,
        phase_chrome_trace,
        phase_summary_lines,
    )
    from repro.perf.registry import REGISTRY, PerfError, load_builtin_suites

    load_builtin_suites()
    profiler = PhaseProfiler()
    bench = REGISTRY.get(args.name)
    if not bench.profile:
        raise PerfError(
            f"benchmark {bench.name!r} is not profileable "
            "(it manages its own observability sink)"
        )
    call_benchmark(bench, profiler)
    lines = phase_summary_lines(profiler)
    if args.trace_out:
        doc = phase_chrome_trace(profiler)
        lines.append(f"wrote {_write('trace', write_trace, doc, args.trace_out)}")
        lines.append("open it in ui.perfetto.dev or chrome://tracing")
    _print_lines(lines)
    return 0


def _add_obs_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--obs",
        action="store_true",
        help="collect observability metrics and print a summary",
    )
    p.add_argument(
        "--trace-out",
        default=None,
        metavar="DIR",
        help="write trace.json / events.jsonl / summary.txt to DIR",
    )


def _add_trial_arguments(
    p: argparse.ArgumentParser, *, dim: int, trials: int
) -> None:
    """The flags of a batch of seeded convergence trials."""
    p.add_argument("--dim", type=int, default=dim, help="SoC dimension d")
    p.add_argument("--trials", type=int, default=trials)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threshold", type=float, default=1.5)
    p.add_argument(
        "--variant", choices=sorted(VARIANTS), default="preferred"
    )


def _add_scheme_argument(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scheme", choices=sorted(SCHEMES), default="BC")


def _add_soc_arguments(p: argparse.ArgumentParser) -> None:
    """The flags of one workload run on a managed SoC."""
    p.add_argument("--soc", choices=sorted(SOCS), default="3x3")
    p.add_argument(
        "--workload", choices=sorted(WORKLOADS), default="av-par"
    )
    _add_scheme_argument(p)
    p.add_argument(
        "--budget", type=_budget_arg, default=None, help="power budget in mW"
    )


def _add_fig16_arguments(p: argparse.ArgumentParser) -> None:
    _add_scheme_argument(p)
    p.add_argument(
        "--mode", choices=["WL-Par", "WL-Dep"], default="WL-Par",
        help="fig16 case (default: WL-Par)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BlitzCoin reproduction command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("soc-run", help="run a workload on a managed SoC")
    _add_soc_arguments(p)
    _add_obs_arguments(p)
    p.set_defaults(func=cmd_soc_run)

    p = sub.add_parser(
        "convergence", help="run seeded coin-exchange convergence trials"
    )
    _add_trial_arguments(p, dim=8, trials=5)
    _add_obs_arguments(p)
    p.set_defaults(func=cmd_trials)

    p = sub.add_parser(
        "trace",
        help="run one experiment fully observed and export a Perfetto-"
        "loadable Chrome trace plus JSONL and text summaries",
    )
    esub = p.add_subparsers(
        dest="experiment", required=True, help="which experiment to trace"
    )
    for name, add_arguments in (
        ("convergence", lambda ep: _add_trial_arguments(ep, dim=6, trials=1)),
        ("soc", _add_soc_arguments),
    ):
        ep = esub.add_parser(name)
        ep.add_argument(
            "--out", default="obs_trace", metavar="DIR",
            help="output directory (default: obs_trace)",
        )
        add_arguments(ep)
        ep.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "faults",
        help="run convergence trials under fault injection "
        "(packet loss/duplication/corruption/delay, tile kills)",
    )
    _add_trial_arguments(p, dim=8, trials=5)
    for flag, help_text in (
        ("--rate", "per-packet drop probability (default: 0.0)"),
        ("--duplicate-rate", "per-packet duplication probability"),
        ("--corrupt-rate", "per-packet corruption probability"),
        ("--delay-rate", "per-packet extra-delay probability"),
    ):
        p.add_argument(flag, type=float, default=0.0, help=help_text)
    p.add_argument(
        "--max-delay", type=int, default=32,
        help="max extra delay in cycles (default: 32)",
    )
    p.add_argument(
        "--kill-tile", type=int, default=None, metavar="TILE",
        help="kill this tile during the run",
    )
    p.add_argument(
        "--kill-at", type=int, default=100, metavar="CYCLE",
        help="cycle at which --kill-tile dies (default: 100)",
    )
    p.add_argument(
        "--fault-seed", type=int, default=None,
        help="fault-decision stream seed (default: 0 / plan's own)",
    )
    p.add_argument(
        "--plan", default=None, metavar="FILE",
        help="load a FaultPlan JSON file (overrides the rate flags)",
    )
    p.add_argument(
        "--sweep", action="store_true",
        help="run the degradation-curve sweep (BlitzCoin vs centralized, "
        "with and without kills) instead of single-plan trials",
    )
    _add_obs_arguments(p)
    p.set_defaults(func=cmd_trials)

    p = sub.add_parser(
        "campaign",
        help="parallel, cached, resumable experiment campaigns "
        "(see docs/CAMPAIGNS.md)",
    )
    csub = p.add_subparsers(dest="campaign_command", required=True)

    def _add_campaign_target(
        cp, *, allow_all: bool = False, required: bool = True
    ) -> None:
        group = cp.add_mutually_exclusive_group(required=required)
        group.add_argument(
            "--spec", default=None, metavar="FILE",
            help="load a CampaignSpec JSON file",
        )
        group.add_argument(
            "--preset", default=None, metavar="NAME",
            help="use a named preset (e.g. smoke, fig03-quick)",
        )
        if allow_all:
            group.add_argument(
                "--all", action="store_true",
                help="apply to every spec in the store",
            )
        cp.add_argument(
            "--store", default=DEFAULT_CAMPAIGN_STORE, metavar="DIR",
            help=f"result-store directory (default: {DEFAULT_CAMPAIGN_STORE})",
        )

    cp = csub.add_parser(
        "run", help="run (or resume) a campaign; cached units are free"
    )
    _add_campaign_target(cp)
    cp.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="process-pool width for missing units (default: 1 = serial)",
    )
    cp.add_argument(
        "--verify", type=int, default=1, metavar="N",
        help="after a parallel run, re-run N units serially and assert "
        "bit-identical results (default: 1; 0 disables)",
    )
    cp.add_argument(
        "--fresh", action="store_true",
        help="discard this spec's cached artifacts before running",
    )
    cp.add_argument(
        "--csv", default=None, metavar="FILE",
        help="also export the per-unit results as CSV",
    )
    cp.add_argument(
        "-v", "--verbose", action="store_true",
        help="print one line per unit as the campaign progresses",
    )
    _add_obs_arguments(cp)
    cp.set_defaults(func=cmd_campaign_run)

    cp = csub.add_parser(
        "status",
        help="report done/missing/corrupt units for a spec, or — with "
        "no --spec/--preset — one line per spec in the whole store",
    )
    _add_campaign_target(cp, required=False)
    cp.set_defaults(func=cmd_campaign_status)

    cp = csub.add_parser(
        "clean", help="remove a spec's cached artifacts (or the whole store)"
    )
    _add_campaign_target(cp, allow_all=True)
    cp.set_defaults(func=cmd_campaign_clean)

    p = sub.add_parser(
        "report",
        help="run one experiment under the online health monitors and "
        "write its RunReport artifact (see docs/REPORTS.md)",
    )
    esub = p.add_subparsers(
        dest="experiment",
        required=True,
        help=f"which experiment to report on (default: {DEFAULT_REPORT})",
    )
    for name, add_arguments in (
        ("fig16", _add_fig16_arguments),
        ("soc", _add_soc_arguments),
        ("convergence", lambda ep: _add_trial_arguments(ep, dim=6, trials=3)),
    ):
        ep = esub.add_parser(name)
        ep.add_argument(
            "--out", default="run_report.json", metavar="FILE",
            help="report destination (default: run_report.json)",
        )
        ep.add_argument(
            "--html", default=None, metavar="FILE",
            help="also render the self-contained HTML dashboard",
        )
        add_arguments(ep)
        ep.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "diff",
        help="compare two RunReports (or campaign store dirs); "
        "exit 3 when the candidate regressed against the baseline",
    )
    p.add_argument(
        "baseline",
        help="baseline report.json (or a campaign spec directory)",
    )
    p.add_argument(
        "candidate",
        help="candidate report.json (or a campaign spec directory)",
    )
    p.add_argument(
        "--thresholds", default=None, metavar="FILE",
        help="threshold policy JSON (default: built-in CI policy)",
    )
    p.add_argument(
        "--only-changed", action="store_true",
        help="hide metrics whose status is 'ok'",
    )
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser(
        "figure", help="regenerate a paper figure's rows (e.g. fig17)"
    )
    p.add_argument("name", help="experiment module name, e.g. fig03_convergence")
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser(
        "lint",
        help="run blitzlint, the repo's determinism/coin-conservation "
        "static analysis",
    )
    add_lint_arguments(p)
    p.set_defaults(func=run_lint)

    p = sub.add_parser(
        "bench",
        help="performance benchmarks: run suites, compare BENCH_*.json "
        "trajectories, phase-profile workloads (see docs/BENCHMARKS.md)",
    )
    bsub = p.add_subparsers(dest="bench_command", required=True)

    bp = bsub.add_parser("list", help="list registered benchmarks")
    bp.set_defaults(func=cmd_bench_list)

    bp = bsub.add_parser(
        "run", help="run a suite and write its BENCH_<suite>.json artifact"
    )
    bp.add_argument(
        "--suite", default="core",
        help="suite to run (default: core)",
    )
    bp.add_argument(
        "--bench", action="append", default=None, metavar="NAME",
        help="run only this benchmark (repeatable; overrides --suite "
        "selection, artifact still labeled by --suite)",
    )
    bp.add_argument(
        "--reps", type=int, default=3,
        help="timed repetitions per benchmark (default: 3)",
    )
    bp.add_argument(
        "--warmup", type=int, default=1,
        help="untimed warmup repetitions (default: 1)",
    )
    bp.add_argument(
        "--no-profile", action="store_true",
        help="skip the phase-attributed repetition",
    )
    bp.add_argument(
        "--out", default=None, metavar="FILE",
        help="artifact destination (default: BENCH_<suite>.json)",
    )
    bp.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress per-benchmark progress lines",
    )
    bp.set_defaults(func=cmd_bench_run)

    bp = bsub.add_parser(
        "compare",
        help="diff two BENCH_*.json artifacts; exit 3 when the candidate "
        "regressed against the baseline",
    )
    bp.add_argument("baseline", help="baseline BENCH_*.json")
    bp.add_argument("candidate", help="candidate BENCH_*.json")
    bp.add_argument(
        "--thresholds", default=None, metavar="FILE",
        help="threshold policy JSON (default: exact on identity metrics, "
        "--wall-rel/--wall-abs on timing metrics)",
    )
    bp.add_argument(
        "--wall-rel", type=float, default=None, metavar="FRAC",
        help="relative slowdown tolerance for timing metrics "
        "(default: 0.5 = flag >50%% slower)",
    )
    bp.add_argument(
        "--wall-abs", type=float, default=None, metavar="SECONDS",
        help="absolute timing-change floor in seconds (default: 0.005)",
    )
    bp.add_argument(
        "--only-changed", action="store_true",
        help="hide metrics whose status is 'ok'",
    )
    bp.set_defaults(func=cmd_bench_compare)

    bp = bsub.add_parser(
        "profile",
        help="run one benchmark under the phase-attribution profiler and "
        "print where the wall time went",
    )
    bp.add_argument("name", help="benchmark name (see 'bench list')")
    bp.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="also write the phase breakdown as a Perfetto-loadable "
        "Chrome trace",
    )
    bp.set_defaults(func=cmd_bench_profile)

    add_fuzz_parser(sub)
    add_serve_parser(sub)

    return parser


def _with_default_report(argv: List[str]) -> List[str]:
    """``report [FLAGS]`` means ``report fig16 [FLAGS]`` (argparse has no
    default sub-command)."""
    if argv[:1] == ["report"] and (
        len(argv) == 1
        or (argv[1].startswith("-") and argv[1] not in ("-h", "--help"))
    ):
        return ["report", DEFAULT_REPORT, *argv[1:]]
    return argv


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_with_default_report(argv))
    try:
        rc = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (``repro ... | head``): stop
        # quietly, and point stdout at devnull so the interpreter's
        # exit-time flush cannot fail again (the ``signal`` docs' recipe).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (CliError, CampaignError, ExecutorError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
