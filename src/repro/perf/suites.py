"""The built-in benchmark suites (importing this module registers them).

The ``core`` suite is the CI trajectory gate: small, deterministic
workloads exercising every hot layer — the exchange engine, the
campaign executor, blitzlint's dataflow passes, and the observability
path itself.  Each body derives all randomness from the seeds in its
params, so the identity half of ``BENCH_core.json`` (metrics and
counters) is byte-reproducible; only the wall times move.

Sizes here are deliberately "quick": the whole suite must run twice in
the CI bench job, so every body but two targets well under a second.
The exceptions are the single large-mesh trials
``engine.convergence.d16`` and ``engine.convergence.d32`` (about 0.5 s
and 4 s on a 2-vCPU host), which measure how the engine scales with N
instead of extrapolating from d=6.  d16 declares the engine counters:
its counted repetition, under the harness's counter tap, takes about
0.9 s.  d32 declares none, to keep a second ~7 s run out of the suite.
The paper's figures, and the heavyweight versions of these workloads,
are the ``figures`` and ``full`` suites in ``benchmarks/bench_*.py``.

The ``serve`` suite tracks the simulation service (repro.serve, see
docs/SERVICE.md): cold submission latency (server start + submit +
execute + stream), warm-cache submission latency, and a small
sustained storm of concurrent deduped clients.  Serve benchmarks
declare no counters and never profile: their jobs run on the server's
lane threads, outside the context the harness installs its sink in, so
a counted or profiled repetition would see none of the job's work.
"""

from __future__ import annotations

import dataclasses
import tempfile
from pathlib import Path
from typing import Any, Dict

from repro.perf.registry import register

_SRC_REPRO = Path(__file__).resolve().parent.parent


def _trial_metrics(results: Any) -> Dict[str, int]:
    """Deterministic identity metrics for a list of TrialResults."""
    return {
        "converged": sum(1 for r in results if r.converged),
        "packets": sum(r.packets for r in results),
        "exchanges": sum(r.exchanges for r in results),
        "cycles": sum(r.cycles or 0 for r in results),
    }


_ENGINE_COUNTERS = (
    "engine.exchanges_initiated",
    "engine.coins_moved",
    "engine.coin_deltas",
)


@register(
    "engine.convergence",
    params={"d": 6, "trials": 3, "base_seed": 3, "threshold": 1.5},
    suites=("core",),
    counters=_ENGINE_COUNTERS,
    profile=True,
    description="Seeded convergence trials on the preferred embodiment "
    "(the engine + NoC + kernel hot loop).",
)
def _engine_convergence(d, trials, base_seed, threshold):
    from repro.core.config import preferred_embodiment
    from repro.core.runner import run_trials

    results = run_trials(
        d,
        preferred_embodiment(),
        trials,
        base_seed=base_seed,
        threshold=threshold,
    )
    return _trial_metrics(results)


register(
    "engine.convergence.d16",
    params={"d": 16, "trials": 1, "base_seed": 3, "threshold": 1.5},
    suites=("core",),
    counters=_ENGINE_COUNTERS,
    profile=True,
    description="One seeded preferred-embodiment trial on a 16x16 mesh "
    "(N=256).",
)(_engine_convergence)
register(
    "engine.convergence.d32",
    params={"d": 32, "trials": 1, "base_seed": 3, "threshold": 1.5},
    suites=("core",),
    description="One seeded preferred-embodiment trial on a 32x32 mesh "
    "(N=1024): the hot loop at the scale of Fig. 21.  Neither counted "
    "nor profiled: a 3.5 s bare trial took 7.3 s under the counter tap "
    "and 8.0 s under the phase profiler (2-vCPU host).",
)(_engine_convergence)


@register(
    "fig03.quick",
    params={"dims": (4, 6), "trials": 2, "base_seed": 3},
    suites=("core",),
    counters=("engine.exchanges_initiated", "campaign.units_executed"),
    profile=True,
    description="A shrunken Fig. 3 sweep through the campaign layer "
    "(1-way vs 4-way on d=4 and d=6 meshes).",
)
def _fig03_quick(dims, trials, base_seed):
    from repro.experiments import fig03_convergence

    result = fig03_convergence.run(
        tuple(dims), trials, base_seed, workers=1
    )
    metrics: Dict[str, float] = {}
    for technique, suffix in (("1-way", "1way"), ("4-way", "4way")):
        pts = result.curve(technique)
        metrics[f"cycles_{suffix}"] = sum(p.mean_cycles for p in pts)
        metrics[f"packets_{suffix}"] = sum(p.mean_packets for p in pts)
        metrics[f"converged_{suffix}"] = min(
            p.converged_fraction for p in pts
        )
    return metrics


@register(
    "campaign.serial",
    params={"d_values": (4,), "trials": 2, "base_seed": 3},
    suites=("core",),
    counters=(
        "campaign.units_total",
        "campaign.units_executed",
        "campaign.units_cached",
    ),
    description="A small convergence campaign on a cold store: spec "
    "expansion, unit execution, result persistence.",
)
def _campaign_serial(d_values, trials, base_seed):
    from repro.campaign import CampaignSpec, CampaignStore, run_campaign
    from repro.campaign.spec import encode_config
    from repro.core.config import plain_one_way

    spec = CampaignSpec(
        name="bench-core-campaign",
        kind="convergence",
        trials=trials,
        base_seed=base_seed,
        seed_stride=1000,
        axes=(("mode", ("1-way", "4-way")), ("d", tuple(d_values))),
        params={"threshold": 1.5},
        config=encode_config(plain_one_way()),
    )
    with tempfile.TemporaryDirectory(prefix="bench-campaign-") as scratch:
        run = run_campaign(
            spec, store=CampaignStore(Path(scratch)), workers=1
        )
        return {
            "units_total": run.total,
            "units_executed": run.executed,
            "units_cached": run.cached,
        }


@register(
    "lint.cold",
    params={},
    suites=("core",),
    description="blitzlint full dataflow analysis of src/repro on a "
    "fresh result cache.",
)
def _lint_cold():
    from repro.analysis.cache import ResultCache
    from repro.analysis.lint import lint_paths

    with tempfile.TemporaryDirectory(prefix="bench-lint-") as scratch:
        cache = ResultCache(Path(scratch) / "cache.json")
        findings = lint_paths([str(_SRC_REPRO)], cache=cache)
    return {"findings": len(findings)}


def _lint_warm_setup():
    from repro.analysis.cache import ResultCache
    from repro.analysis.lint import lint_paths

    scratch = Path(tempfile.mkdtemp(prefix="bench-lint-warm-"))
    cache_path = scratch / "cache.json"
    cache = ResultCache(cache_path)
    lint_paths([str(_SRC_REPRO)], cache=cache)
    cache.save()
    return {"cache_path": str(cache_path)}


@register(
    "lint.warm",
    params={},
    setup=_lint_warm_setup,
    suites=("core",),
    description="blitzlint over src/repro with every file served from "
    "the content-hash result cache.",
)
def _lint_warm(cache_path):
    from repro.analysis.cache import ResultCache
    from repro.analysis.lint import lint_paths

    findings = lint_paths([str(_SRC_REPRO)], cache=ResultCache(cache_path))
    return {"findings": len(findings)}


@register(
    "obs.overhead_off",
    params={"d": 4, "trials": 2, "base_seed": 3, "threshold": 1.5},
    suites=("core",),
    description="Convergence trials with no sink installed — the "
    "baseline for the obs fast-flag overhead trajectory.",
)
def _obs_overhead_off(d, trials, base_seed, threshold):
    from repro.core.config import preferred_embodiment
    from repro.core.runner import run_trials

    results = run_trials(
        d,
        preferred_embodiment(),
        trials,
        base_seed=base_seed,
        threshold=threshold,
    )
    return _trial_metrics(results)


@register(
    "obs.overhead_on",
    params={"d": 4, "trials": 2, "base_seed": 3, "threshold": 1.5},
    suites=("core",),
    description="The identical workload under a full Observation sink; "
    "the wall-time ratio against obs.overhead_off tracks the 'cheap "
    "enabled' claim. Installs its own sink, so no counters/profile.",
)
def _obs_overhead_on(d, trials, base_seed, threshold):
    from repro.core.config import preferred_embodiment
    from repro.core.runner import run_trials
    from repro.obs import observing

    with observing():
        results = run_trials(
            d,
            preferred_embodiment(),
            trials,
            base_seed=base_seed,
            threshold=threshold,
        )
    return _trial_metrics(results)


# ------------------------------------------------------------- serve suite
def _serve_spec_doc(slot: int, base_seed: int) -> Dict[str, Any]:
    """A distinct quick campaign spec document per ``slot``."""
    from repro.serve.loadgen import build_spec_pool

    pool = build_spec_pool(slot + 1)
    spec = pool[slot]
    return {
        "kind": "campaign",
        "spec": dataclasses.replace(spec, base_seed=base_seed).to_dict(),
    }


async def _serve_session(store_root, body):
    """Run ``body(host, port, server)`` against a private server."""
    from repro.campaign.store import CampaignStore
    from repro.serve.server import ServeServer

    server = ServeServer(CampaignStore(Path(store_root)))
    host, port = await server.start("127.0.0.1", 0)
    try:
        return await body(host, port, server)
    finally:
        await server.close()


@register(
    "serve.submit_cold",
    params={"base_seed": 11},
    suites=("serve",),
    description="One cold submission end to end: server start, POST "
    "/submit, campaign execution, streamed completion.  The job runs on "
    "a lane thread, outside the harness's sink context, so no "
    "counters/profile.",
)
def _serve_submit_cold(base_seed):
    import asyncio

    from repro.serve.client import ServeClient

    async def body(host, port, server):
        async with ServeClient(host, port) as client:
            response = await client.submit(_serve_spec_doc(0, base_seed))
            done = await client.wait(response["job"])
        return {
            "executed": server.queue.stats["executed"],
            "cache_hits": server.queue.stats["cache_hits"],
            "units": done["result"]["executed"],
        }

    with tempfile.TemporaryDirectory(prefix="bench-serve-") as scratch:
        return asyncio.run(_serve_session(scratch, body))


def _serve_warm_setup(base_seed):
    """Prime a store so the timed submission is a pure cache hit."""
    import asyncio

    from repro.serve.client import ServeClient

    scratch = tempfile.mkdtemp(prefix="bench-serve-warm-")

    async def body(host, port, server):
        async with ServeClient(host, port) as client:
            response = await client.submit(_serve_spec_doc(0, base_seed))
            await client.wait(response["job"])

    asyncio.run(_serve_session(scratch, body))
    return {"store_root": scratch}


@register(
    "serve.submit_warm",
    params={"base_seed": 11},
    setup=_serve_warm_setup,
    suites=("serve",),
    description="The identical submission against a primed store: the "
    "warm-cache path must answer without executing a single unit.",
)
def _serve_submit_warm(base_seed, store_root):
    import asyncio

    from repro.serve.client import ServeClient

    async def body(host, port, server):
        async with ServeClient(host, port) as client:
            response = await client.submit(_serve_spec_doc(0, base_seed))
            done = await client.wait(response["job"])
        return {
            "executed": server.queue.stats["executed"],
            "cache_hits": server.queue.stats["cache_hits"],
            "units": done["result"]["executed"],
            "outcome_cached": int(response["outcome"] == "cached"),
        }

    return asyncio.run(_serve_session(store_root, body))


@register(
    "serve.storm",
    params={"clients": 32, "requests": 4, "base_seed": 11},
    suites=("serve",),
    description="A small sustained storm: concurrent keep-alive clients "
    "submitting one already-running spec round-robin; every request "
    "after the first dedupes, none re-executes.",
)
def _serve_storm(clients, requests, base_seed):
    import asyncio

    from repro.serve.client import ServeClient

    doc = _serve_spec_doc(0, base_seed)

    async def one_client(host, port):
        async with ServeClient(host, port) as client:
            ok = 0
            for _ in range(requests):
                response = await client.submit(doc)
                ok += int(response["state"] in ("queued", "running",
                                                "done", "cached"))
            return ok

    async def body(host, port, server):
        async with ServeClient(host, port) as primer:
            response = await primer.submit(doc)
            await primer.wait(response["job"])
        ok = await asyncio.gather(
            *(one_client(host, port) for _ in range(clients))
        )
        return {
            "requests_ok": sum(ok),
            "executed": server.queue.stats["executed"],
            "deduped": server.queue.stats["deduped"],
        }

    with tempfile.TemporaryDirectory(prefix="bench-serve-storm-") as scratch:
        return asyncio.run(_serve_session(scratch, body))
