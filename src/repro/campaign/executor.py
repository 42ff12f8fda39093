"""Campaign execution: serial or process-parallel, cache-transparent.

Every :class:`~repro.campaign.spec.CampaignUnit` is one self-contained
seeded simulation, so fanning units out over a
``ProcessPoolExecutor`` cannot change any result: the unit's seed and
parameters fully determine its outcome.  :func:`run_campaign` still
*asserts* that property rather than assuming it — after a parallel run
it re-executes the first ``verify_units`` freshly-computed units
in-process and requires canonical-JSON equality (a "trust but verify"
guard against accidental cross-trial state leaking in).

Results stream into the :class:`~repro.campaign.store.CampaignStore`
as they complete (atomic per-unit artifacts), so an interrupted
campaign resumes by executing only the missing units.  Progress is
reported through :mod:`repro.obs` counters when a sink is installed.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import Executor, ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.campaign.errors import CampaignError, SpecError
from repro.campaign.spec import (
    _CONFIG_SCALAR_FIELDS,
    CampaignSpec,
    CampaignUnit,
    _decode_mode,
    canonical_json,
    decode_config,
)
from repro.campaign.store import CampaignStore
from repro.core.config import BlitzCoinConfig, ConfigError
from repro.core.runner import (
    ScenarioSpec,
    heterogeneous_scenario,
    homogeneous_scenario,
    run_convergence_trial,
    settle_to_residual,
)
from repro.faults.plan import FaultPlan, LinkFaultRates, TileFaultEvent
from repro.obs import runtime as _obs

__all__ = ["CampaignRun", "build_scenario", "execute_unit", "run_campaign"]

#: Called after each unit as ``progress(done, total, unit, cached)``.
ProgressFn = Callable[[int, int, CampaignUnit, bool], None]


# ------------------------------------------------------------------ run result
@dataclass(frozen=True)
class CampaignRun:
    """Outcome of one :func:`run_campaign` invocation."""

    spec: CampaignSpec
    units: List[CampaignUnit]
    #: Result dicts, aligned with ``units`` (unit order).
    results: List[Dict[str, Any]]
    cached: int
    executed: int
    verified: int
    workers: int

    @property
    def total(self) -> int:
        return len(self.units)

    def grouped(self) -> List[List[Dict[str, Any]]]:
        """Results grouped by point, in sweep order."""
        n_points = len(self.spec.points())
        groups: List[List[Dict[str, Any]]] = [[] for _ in range(n_points)]
        for u, r in zip(self.units, self.results):
            groups[u.point_index].append(r)
        return groups


# ------------------------------------------------------------------ scenarios
def build_scenario(
    desc: Mapping[str, Any], d: int, trial_seed: int
) -> ScenarioSpec:
    """Build a :class:`ScenarioSpec` from a spec's scenario descriptor.

    ``{"kind": "homogeneous", "max_per_tile": 32, "utilization": 0.75}``
    or ``{"kind": "heterogeneous", "acc_types": 8, "base_max": 8,
    "utilization": 0.75, "seed": "trial"}``; a ``"trial"`` seed reuses
    the unit's own seed (the fig07 convention).
    """
    kind = desc.get("kind")
    if kind == "homogeneous":
        return homogeneous_scenario(
            d,
            max_per_tile=int(desc.get("max_per_tile", 32)),
            utilization=float(desc.get("utilization", 0.75)),
        )
    if kind == "heterogeneous":
        seed = desc.get("seed", "trial")
        return heterogeneous_scenario(
            d,
            int(desc["acc_types"]),
            base_max=int(desc.get("base_max", 8)),
            utilization=float(desc.get("utilization", 0.75)),
            seed=trial_seed if seed == "trial" else int(seed),
        )
    raise SpecError(f"unknown scenario kind {kind!r}")


# ---------------------------------------------------------------- trial kinds
def _resolve_config(
    spec: CampaignSpec, params: Mapping[str, Any]
) -> BlitzCoinConfig:
    """The baseline config with this point's field overrides applied."""
    base = (
        BlitzCoinConfig() if spec.config is None else decode_config(spec.config)
    )
    overrides: Dict[str, Any] = {}
    for key, value in params.items():
        if key in _CONFIG_SCALAR_FIELDS:
            overrides[key] = _decode_mode(value) if key == "mode" else value
    if not overrides:
        return base
    try:
        return dataclasses.replace(base, **overrides)
    except (ConfigError, TypeError, ValueError) as exc:
        raise SpecError(f"invalid config override {overrides}: {exc}") from exc


def _fault_plan_for(
    params: Mapping[str, Any], seed: int
) -> Optional[FaultPlan]:
    """A per-trial fault plan from the ``rate``/``kill_tile`` knobs.

    The plan's decision stream is seeded with the *trial* seed, the
    ``experiments.fault_sweep`` convention (independent fault patterns
    per trial, still seed-exact).
    """
    rate = params.get("rate")
    kill_tile = params.get("kill_tile")
    if rate is None and kill_tile is None:
        return None
    events: Tuple[TileFaultEvent, ...] = ()
    if kill_tile is not None:
        events = (
            TileFaultEvent(
                cycle=int(params.get("kill_at", 100)),
                tile=int(kill_tile),
                action="kill",
            ),
        )
    return FaultPlan(
        seed=seed,
        link=LinkFaultRates(drop=float(rate or 0.0)),
        tile_events=events,
    )


def _exec_hardware_trial(
    spec: CampaignSpec, unit: CampaignUnit
) -> Dict[str, Any]:
    """Run one BlitzCoin trial (kind ``convergence`` or ``settle``)."""
    params = unit.params
    d = int(params["d"])
    config = _resolve_config(spec, params)
    plan = _fault_plan_for(params, unit.seed)
    if plan is not None:
        config = dataclasses.replace(config, fault_plan=plan)
    scenario = None
    if params.get("scenario") is not None:
        scenario = build_scenario(params["scenario"], d, unit.seed)
    if spec.kind == "settle":
        result = settle_to_residual(
            d,
            config,
            unit.seed,
            scenario=scenario,
            settle_cycles=int(params.get("settle_cycles", 400_000)),
        )
    else:
        result = run_convergence_trial(
            d,
            config,
            unit.seed,
            scenario=scenario,
            max_cycles=int(params.get("max_cycles", 2_000_000)),
            threshold=params.get("threshold"),
            donor_fraction=float(params.get("donor_fraction", 0.1)),
        )
    return dataclasses.asdict(result)


def _exec_centralized(
    spec: CampaignSpec, unit: CampaignUnit
) -> Dict[str, Any]:
    """Run one centralized-baseline trial (``kill_at`` kills the
    controller tile, the BC-C cliff of the fault sweep)."""
    # Imported lazily: experiments.fault_sweep itself drives campaigns.
    from repro.experiments.fault_sweep import run_centralized_trial

    params = unit.params
    kill_at = params.get("kill_at")
    result = run_centralized_trial(
        int(params["d"]),
        float(params.get("rate", 0.0)),
        unit.seed,
        kill_controller_at=None if kill_at is None else int(kill_at),
        max_cycles=int(params.get("max_cycles", 200_000)),
    )
    return dataclasses.asdict(result)


def execute_unit(spec: CampaignSpec, unit: CampaignUnit) -> Dict[str, Any]:
    """Execute one unit in-process and return its JSON-ready result."""
    if spec.kind == "centralized":
        return _exec_centralized(spec, unit)
    return _exec_hardware_trial(spec, unit)


# ------------------------------------------------------------ worker plumbing
#: Memo of decoded specs in worker processes (one spec per campaign, so
#: this holds a single entry in practice; bounded defensively).  Pure
#: key->decode(key) memo: worker-private copies cannot diverge results.
# blitzlint: disable=P1
_SPEC_MEMO: Dict[str, CampaignSpec] = {}


def _run_unit_payload(spec_json: str, unit_dict: Dict[str, Any]) -> Dict[str, Any]:
    """Top-level (picklable) worker entry point."""
    spec = _SPEC_MEMO.get(spec_json)
    if spec is None:
        if len(_SPEC_MEMO) > 4:
            _SPEC_MEMO.clear()
        spec = CampaignSpec.from_json(spec_json)
        _SPEC_MEMO[spec_json] = spec
    return execute_unit(spec, CampaignUnit(**unit_dict))


# ------------------------------------------------------------------- executor
def run_campaign(
    spec: CampaignSpec,
    store: Optional[CampaignStore] = None,
    *,
    workers: int = 1,
    executor: Optional[Executor] = None,
    verify_units: int = 1,
    fresh: bool = False,
    progress: Optional[ProgressFn] = None,
) -> CampaignRun:
    """Run ``spec``, consulting/filling ``store`` transparently.

    ``workers > 1`` fans the missing units out over a process pool (an
    injected ``executor`` takes precedence — any
    ``concurrent.futures.Executor``).  ``fresh`` discards the spec's
    cached artifacts first.  ``verify_units`` re-runs that many
    freshly-executed units in-process after a parallel run and asserts
    bit-identical (canonical JSON) results; 0 disables the check.
    """
    if workers < 1:
        raise SpecError(f"workers must be >= 1, got {workers}")
    if verify_units < 0:
        raise SpecError(f"verify_units must be >= 0, got {verify_units}")
    if fresh and store is not None:
        store.clean(spec)
    units = spec.units()
    total = len(units)

    # -------------------------------------------------- cache consultation
    results: List[Optional[Dict[str, Any]]] = [None] * total
    to_run: List[CampaignUnit] = []
    cached = 0
    if store is not None:
        store.load_manifest(spec)  # surfaces hash-collision/tampering early
        for unit in units:
            hit = store.load_unit(spec, unit)
            if hit is not None:
                results[unit.index] = hit
                cached += 1
            else:
                to_run.append(unit)
        store.write_manifest(
            spec, total=total, cached=cached, executed=0, complete=False
        )
    else:
        to_run = list(units)

    sink = _obs.sink
    if sink is not None:
        sink.inc("campaign.units_total", 0, n=total, campaign=spec.name)
        if cached:
            sink.inc("campaign.units_cached", 0, n=cached, campaign=spec.name)

    # --------------------------------------------------------- execution
    done = cached
    if progress is not None:
        for unit in units:
            if results[unit.index] is not None:
                progress(done, total, unit, True)
    executed = 0
    parallel = executor is not None or (workers > 1 and len(to_run) > 1)
    pool: Optional[Executor] = None
    iterator: Iterable[Dict[str, Any]]
    try:
        if parallel:
            pool = executor
            if pool is None:
                pool = ProcessPoolExecutor(
                    max_workers=min(workers, len(to_run))
                )
            fn = partial(_run_unit_payload, spec.to_json(indent=0))
            iterator = pool.map(
                fn, [u.to_dict() for u in to_run], chunksize=1
            )
        else:
            iterator = (execute_unit(spec, u) for u in to_run)
        for unit, result in zip(to_run, iterator):
            results[unit.index] = result
            executed += 1
            done += 1
            if store is not None:
                store.save_unit(spec, unit, result)
            if sink is not None:
                sink.inc("campaign.units_executed", 0, campaign=spec.name)
                sink.set_gauge(
                    "campaign.units_remaining", 0, total - done,
                    campaign=spec.name,
                )
            if progress is not None:
                progress(done, total, unit, False)
    finally:
        if pool is not None and executor is None:
            pool.shutdown()

    # ------------------------------------------- determinism verification
    verified = 0
    if parallel and verify_units > 0:
        for unit in to_run[:verify_units]:
            replay = execute_unit(spec, unit)
            got = results[unit.index]
            if canonical_json(replay) != canonical_json(got):
                raise CampaignError(
                    f"determinism violation: unit {unit.unit_hash[:12]} "
                    f"(seed {unit.seed}) differs between parallel and "
                    f"serial execution\n  parallel: {canonical_json(got)}"
                    f"\n  serial:   {canonical_json(replay)}"
                )
            verified += 1

    final = [r for r in results if r is not None]
    if len(final) != total:  # pragma: no cover - executor invariant
        raise CampaignError("campaign finished with missing unit results")
    run = CampaignRun(
        spec=spec,
        units=units,
        results=final,
        cached=cached,
        executed=executed,
        verified=verified,
        workers=1 if not parallel else workers,
    )
    if store is not None:
        store.write_results_jsonl(spec, units, final)
        store.write_manifest(
            spec, total=total, cached=cached, executed=executed, complete=True
        )
        # Imported lazily: report depends on campaign for canonical
        # JSON and atomic writes, so the top-level import runs that way.
        from repro.report.run_report import campaign_report, write_run_report

        write_run_report(campaign_report(run), store.report_path(spec))
    return run
