"""One process of a batch workload (mesh-convergence or soc-pm).

It imports the program's entry points, builds the seeded inputs of its
share of the run's job list (every ``--passes``-th job from
``--pass-index``), prints ``READY``, then (unless ``--mode setup``) runs
those jobs serially and
prints one JSON document as its last line: each job's simulated
statistics and host time, the window, host diagnostics and peak RSS.
With ``--mode run`` the reference load of ``calib.py`` ticks alongside
the jobs; its time is kept out of theirs, and its summary is part of
the document.  With ``--mode trace`` the same jobs run under the layer
tracer instead, which also writes a Chrome trace to ``--trace-out``.

Run from the repository root with ``src`` on ``PYTHONPATH``; ``run.py``
does this for you.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calib  # noqa: E402
import host  # noqa: E402

#: Convergence threshold of Figs. 3 and 8.
THRESHOLD = 1.5

#: The mesh-convergence job sequence, taken in order until the budget is
#: spent: (label, d, config, scenario, trial seed, nominal host seconds
#: on the reference box in its fast state).  A trial seed of None is
#: drawn from the run's seed.  Host time varies from seed to seed by
#: ~20% for a d=24 preferred trial, by ~30% for d=16 preferred, by ~50%
#: for the Fig. 3 baselines and by up to 4x for a heterogeneous target
#: whose accelerator-type count is drawn too.  So the seed draws only the
#: two smallest trials, ~6% of a 30 s run's work, and the heterogeneous
#: one keeps the fixed trials' type count; the rest use the first seeds
#: of the Fig. 3 ladder (base seed 3), identical in every run.  The
#: seeded trials come first, so every list holds them.
MESH_SEQUENCE = (
    ("d16-pref", 16, "preferred", "homogeneous", None, 0.55),
    ("d16-het", 16, "preferred", "heterogeneous", None, 0.4),
    ("d16-plain4", 16, "plain-4way", "homogeneous", 3000, 4.1),
    ("d24-pref", 24, "preferred", "homogeneous", 3000, 2.0),
    ("d16-plain1", 16, "plain-1way", "homogeneous", 3000, 1.9),
    ("d24-het", 24, "preferred", "heterogeneous", 3001, 1.9),
    ("d24-pref", 24, "preferred", "homogeneous", 3001, 2.0),
    ("d16-pref", 16, "preferred", "homogeneous", 3001, 0.55),
    ("d16-het", 16, "preferred", "heterogeneous", 3002, 0.4),
    ("d16-pref", 16, "preferred", "homogeneous", 3002, 0.55),
    ("d16-het", 16, "preferred", "heterogeneous", 3003, 0.4),
)

#: A job list grows while its nominal seconds stay within this multiple
#: of the budget.
SLACK = 1.1

#: Accelerator-type counts of the Fig. 8-style heterogeneous targets.
ACC_TYPES = (2, 4, 8)

#: Fig. 17 (3x3 SoC, autonomous vehicle) and Fig. 18 (4x4 SoC, computer
#: vision) grids: (figure, preset, workload, budget mW).
SOC_GRID = (
    ("fig17", "3x3", "WL-Par", 120.0),
    ("fig17", "3x3", "WL-Par", 60.0),
    ("fig17", "3x3", "WL-Dep", 120.0),
    ("fig17", "3x3", "WL-Dep", 60.0),
    ("fig18", "4x4", "WL-Par", 450.0),
    ("fig18", "4x4", "WL-Par", 900.0),
    ("fig18", "4x4", "WL-Dep", 450.0),
)
SOC_GRID_NOMINAL_S = 11.5

#: Random layered DAGs on the same presets, each run under every scheme,
#: taken in order after the grids until the budget is spent: (preset,
#: budget mW, tasks, DAG seed, nominal host seconds for the three runs).
#: A DAG seed of None is drawn from the run's seed.  Host time per 4x4
#: triple varies ~15% from seed to seed but ~40% on the 3x3, whose one
#: NVDLA tile serialises whatever NVDLA tasks a seed draws, so the 3x3
#: DAG uses a fixed seed.
SOC_DAGS = (
    ("4x4", 450.0, 12, None, 2.4),
    ("3x3", 120.0, 12, 17, 1.75),
    ("4x4", 450.0, 12, None, 2.4),
    ("4x4", 450.0, 12, None, 2.4),
)

SCHEMES = ("BC", "BC-C", "C-RR")

class JobFailure(Exception):
    """A job ran but broke one of the benchmark's invariants."""


# --------------------------------------------------------------- job sets
def mesh_jobs(seed: int, budget_s: float) -> List[Dict[str, Any]]:
    """:data:`MESH_SEQUENCE` in order (repeated, with its fixed seeds
    shifted, if the budget outlasts it) while the nominal seconds stay
    within ``SLACK * budget_s``; at least one trial."""
    rng = random.Random(f"mesh-convergence:{seed}")
    jobs: List[Dict[str, Any]] = []
    spent = 0.0
    k = 0
    while True:
        label, d, config, scenario, fixed, nominal = MESH_SEQUENCE[k % len(MESH_SEQUENCE)]
        if jobs and spent + nominal > budget_s * SLACK:
            return jobs
        cycle = k // len(MESH_SEQUENCE)
        if fixed is None:
            trial_seed = scenario_seed = rng.randrange(2**31)
            acc_types = ACC_TYPES[0]
        else:
            trial_seed = scenario_seed = fixed + 100 * cycle
            acc_types = ACC_TYPES[trial_seed % len(ACC_TYPES)]
        job = {"id": f"{k}-{label}-s{trial_seed}", "d": d, "config": config,
               "scenario": scenario, "seed": trial_seed}
        if scenario == "heterogeneous":
            job["id"] += f"-t{acc_types}"
            job.update(acc_types=acc_types, scenario_seed=scenario_seed)
        jobs.append(job)
        spent += nominal
        k += 1


def soc_jobs(seed: int, budget_s: float) -> List[Dict[str, Any]]:
    """The Fig. 17/18 grids plus :data:`SOC_DAGS` triples (repeated, with
    fixed seeds shifted, if the budget outlasts them) while the nominal
    seconds stay within ``SLACK * budget_s``."""
    rng = random.Random(f"soc-pm:{seed}")
    jobs = [
        {"id": f"{fig}-{preset}-{mode}-{budget:g}mW-{scheme}", "preset": preset,
         "graph": mode, "budget": budget, "scheme": scheme}
        for fig, preset, mode, budget in SOC_GRID
        for scheme in SCHEMES
    ]
    spent = SOC_GRID_NOMINAL_S
    k = 0
    while spent + SOC_DAGS[k % len(SOC_DAGS)][-1] <= budget_s * SLACK:
        preset, budget, tasks, fixed, nominal = SOC_DAGS[k % len(SOC_DAGS)]
        if fixed is None:
            dag_seed = rng.randrange(2**31)
        else:
            dag_seed = fixed + 100 * (k // len(SOC_DAGS))
        for scheme in SCHEMES:
            jobs.append(
                {"id": f"dag{k}-{preset}-n{tasks}-s{dag_seed}-{budget:g}mW-{scheme}",
                 "preset": preset, "graph": "dag", "tasks": tasks,
                 "dag_seed": dag_seed, "budget": budget, "scheme": scheme}
            )
        spent += nominal
        k += 1
    return jobs


# ---------------------------------------------------------- entry points
class MeshWorkload:
    """Inputs and runner for ``run_convergence_trial``."""

    layer = "core"

    def __init__(self) -> None:
        from repro.core import config as cfg
        from repro.core import runner

        self.runner = runner
        self.configs = {
            "preferred": cfg.preferred_embodiment(),
            "plain-1way": cfg.plain_one_way(),
            "plain-4way": cfg.plain_four_way(),
        }

    def prepare(self, job: Dict[str, Any]) -> Dict[str, Any]:
        d = job["d"]
        if job["scenario"] == "heterogeneous":
            scenario = self.runner.heterogeneous_scenario(
                d, job["acc_types"], seed=job["scenario_seed"]
            )
        else:
            scenario = self.runner.homogeneous_scenario(d)
        return {"args": (d, self.configs[job["config"]], job["seed"]),
                "kwargs": {"scenario": scenario, "threshold": THRESHOLD}}

    def run(self, prepared: Dict[str, Any], call: Callable[..., Any]) -> Dict[str, Any]:
        # run_convergence_trial itself asserts coin conservation.
        r = call(self.runner.run_convergence_trial, *prepared["args"], **prepared["kwargs"])
        if not r.converged:
            raise JobFailure("trial did not converge")
        return {"converged": r.converged, "cycles": r.cycles,
                "packets": r.packets, "exchanges": r.exchanges}


class SocWorkload:
    """Inputs and runner for ``run_soc_workload``."""

    layer = "soc"

    def __init__(self) -> None:
        from repro.experiments import soc_runs
        from repro.soc import presets
        from repro.soc.pm import PMKind
        from repro.workloads import apps, synthetic

        self.soc_runs = soc_runs
        self.presets = {"3x3": presets.soc_3x3, "4x4": presets.soc_4x4}
        self.graphs = {
            ("3x3", "WL-Par"): apps.autonomous_vehicle_parallel,
            ("3x3", "WL-Dep"): apps.autonomous_vehicle_dependent,
            ("4x4", "WL-Par"): apps.computer_vision_parallel,
            ("4x4", "WL-Dep"): apps.computer_vision_dependent,
        }
        self.random_dag = synthetic.random_layered_dag
        self.schemes = {kind.value: kind for kind in PMKind}

    def prepare(self, job: Dict[str, Any]) -> Dict[str, Any]:
        soc = self.presets[job["preset"]]()
        if job["graph"] == "dag":
            classes = sorted({soc.class_of(t) for t in soc.managed_accelerators()})
            graph = self.random_dag(job["tasks"], classes, job["dag_seed"])
        else:
            graph = self.graphs[(job["preset"], job["graph"])]()
        return {"args": (soc, graph, self.schemes[job["scheme"]], job["budget"]),
                "tasks": len(graph)}

    def run(self, prepared: Dict[str, Any], call: Callable[..., Any]) -> Dict[str, Any]:
        pm_out: List[Any] = []
        r = call(self.soc_runs.run_soc_workload, *prepared["args"], pm_out=pm_out)
        engine = getattr(pm_out[0], "engine", None) if pm_out else None
        if engine is not None:
            engine.check_conservation()
        if len(r.task_finish_cycles) != prepared["tasks"]:
            raise JobFailure(
                f"{len(r.task_finish_cycles)} of {prepared['tasks']} tasks finished"
            )
        return {"makespan_cycles": r.makespan_cycles,
                "response_times_cycles": list(r.response_times_cycles)}


WORKLOADS = {
    "mesh-convergence": (MeshWorkload, mesh_jobs),
    "soc-pm": (SocWorkload, soc_jobs),
}


# ------------------------------------------------------------------ main
def run_jobs(
    workload: Any,
    jobs: List[Dict[str, Any]],
    prepared: List[Dict[str, Any]],
    tracer: Optional[Any],
    sampler: Optional[Any],
) -> Dict[str, Any]:
    """Run every job in order.  A job's time, and the window's, leave out
    the time the reference load's ticks took."""
    results: List[Dict[str, Any]] = []
    gc.collect()  # start the window without set-up's garbage
    probe_before = host.probe_s()
    stat_before = host.cpu_times()
    if sampler is not None:
        sampler.start()
    try:
        t_start = time.perf_counter()
        for job, prep in zip(jobs, prepared):
            if tracer is None:
                call = _direct
            else:
                def call(fn: Callable[..., Any], *a: Any, _id: str = job["id"], **kw: Any) -> Any:
                    return tracer.run_job(_id, workload.layer, fn, *a, **kw)
            busy = sampler.busy_s if sampler is not None else 0.0
            t0 = time.perf_counter()
            entry: Dict[str, Any] = {"id": job["id"], "ok": True}
            try:
                entry["output"] = workload.run(prep, call)
            except Exception as exc:  # noqa: BLE001 - a failed job is counted, not fatal
                entry["ok"] = False
                entry["error"] = f"{type(exc).__name__}: {str(exc).splitlines()[0] if str(exc) else ''}"
            entry["elapsed_s"] = time.perf_counter() - t0
            if sampler is not None:
                entry["elapsed_s"] -= sampler.busy_s - busy
            if tracer is not None and "tasks" in prep and entry["ok"]:
                tracer.counts["soc.tasks"] += prep["tasks"]
            results.append(entry)
        t_end = time.perf_counter()
    finally:
        if sampler is not None:
            sampler.stop()
    stat_after = host.cpu_times()
    probe_after = host.probe_s()
    return {
        "jobs": results,
        "window_s": t_end - t_start - (sampler.busy_s if sampler is not None else 0.0),
        "calib": sampler.summary() if sampler is not None else None,
        "probe_before_s": probe_before,
        "probe_after_s": probe_after,
        "steal_share": host.steal_share(stat_before, stat_after),
    }


def _direct(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    return fn(*args, **kwargs)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True,
                        help="nominal seconds of work to build")
    parser.add_argument("--pass-index", type=int, default=0,
                        help="run jobs pass-index, pass-index + passes, ...")
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), default="run")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    factory, make_jobs = WORKLOADS[args.workload]
    workload = factory()
    jobs = make_jobs(args.seed, args.budget)[args.pass_index :: args.passes]
    prepared = [workload.prepare(job) for job in jobs]
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    tracer = sampler = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        sampler = calib.Sampler()
    doc = run_jobs(workload, jobs, prepared, tracer, sampler)
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        doc["trace"] = {
            "self_s": dict(tracer.self_s),
            "counts": dict(tracer.counts),
            "absent": tracer.absent,
            "spans": len(tracer.spans),
        }
        if args.trace_out:
            tracer.write_chrome_trace(Path(args.trace_out))
    print(json.dumps(doc, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
