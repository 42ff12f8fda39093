"""Scenario execution and the three oracle families.

One scenario runs through the real simulator (engine or full SoC) with
the whole verification battery armed:

1. **Monitor oracle** — the :mod:`repro.obs.monitor` detector battery
   rides the sink path; any ``error``-severity :class:`Alert`
   (starvation, budget overshoot, reconcile backlog) is a failure.
2. **Sanitizer oracle** — the run executes with
   ``BlitzCoinConfig(sanitize=True)`` (the ``BLITZCOIN_SANITIZE=1``
   checker), so per-event coin/packet conservation violations raise
   immediately; a final ``check_conservation()`` backstops the horizon.
3. **Differential oracle** — the same scenario re-executes with
   observability fully off (and, for null fault plans, with no
   injector installed) and must produce a bit-identical fingerprint:
   the obs-on ≡ obs-off and null-plan ≡ no-injector claims the repo
   makes everywhere, checked on *fuzzed* inputs instead of presets.

Execution is deterministic: the scenario's seed drives every stream
through :func:`repro.sim.rng.rng_for`, fingerprints cover only integer
simulator state, and the sink/injector installs are scoped so a crashed
run never leaks global state into the next one.

A caller that wants alerts live (``repro.serve`` streams them) passes
``on_alert``: each monitor calls it the moment it emits an alert, so
the live sequence is the emission order.  :meth:`MonitorSet.alerts`
returns a stable sort of those same alerts by (epoch, cycle, monitor),
and a stable sort keeps each monitor's emission order, so sorting the
live sequence by that key gives ``Execution.alerts`` exactly.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.analysis.sanitize import SanitizerError
from repro.core.config import (
    BlitzCoinConfig,
    plain_four_way,
    plain_one_way,
    preferred_embodiment,
)
from repro.core.engine import CoinExchangeEngine, EngineError
from repro.core.runner import ScenarioSpec, random_initial_allocation
from repro.faults.runtime import maybe_injecting
from repro.fuzz.scenario import FuzzError, Scenario
from repro.noc.behavioral import BehavioralNoc
from repro.noc.topology import MeshTopology
from repro.obs.monitor import (
    Alert,
    Monitor,
    MonitorSet,
    default_monitors,
)
from repro.obs.runtime import install as obs_install
from repro.obs.runtime import uninstall as obs_uninstall
from repro.sim.kernel import Simulator
from repro.sim.rng import rng_for
from repro.soc.executor import ExecutorError, WorkloadExecutor
from repro.soc.pm import PMKind, build_pm
from repro.soc.presets import soc_3x3, soc_4x4
from repro.soc.soc import Soc

__all__ = [
    "Execution",
    "Failure",
    "FuzzOutcome",
    "execute_scenario",
    "run_oracles",
]

_CONFIG_BUILDERS = {
    "1way": plain_one_way,
    "4way": plain_four_way,
    "preferred": preferred_embodiment,
}

_SOC_BUILDERS = {"3x3": soc_3x3, "4x4": soc_4x4}


@dataclass(frozen=True)
class Failure:
    """One oracle violation, with a stable identity for shrinking.

    ``key`` names the violation class (``monitor:starvation``,
    ``sanitizer:coin-conservation``, ``differential:obs-identity`` ...);
    shrinking accepts a reduction only while the key is preserved, so a
    shrunk bundle still trips the *same* oracle.
    """

    oracle: str  # "monitor" | "sanitizer" | "differential" | "hang"
    key: str
    detail: str

    def to_dict(self) -> Dict[str, str]:
        return {"oracle": self.oracle, "key": self.key, "detail": self.detail}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Failure":
        try:
            return cls(
                oracle=str(data["oracle"]),
                key=str(data["key"]),
                detail=str(data["detail"]),
            )
        except KeyError as exc:
            raise FuzzError(f"malformed failure record: missing {exc}") from exc


@dataclass
class Execution:
    """Raw outputs of one observed run (pre-oracle)."""

    fingerprint: str
    counters: Dict[str, int] = field(default_factory=dict)
    alerts: List[Alert] = field(default_factory=list)
    failures: List[Failure] = field(default_factory=list)


@dataclass(frozen=True)
class FuzzOutcome:
    """The oracle verdict on one scenario."""

    fingerprint: str
    failures: Tuple[Failure, ...]
    coverage: Tuple[str, ...]
    counters: Dict[str, int]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def failure_keys(self) -> Tuple[str, ...]:
        return tuple(f.key for f in self.failures)


class CounterTap(Monitor):
    """Observe-only monitor that tallies every sink counter increment.

    This is the fuzzer's "kernel phase mix" signal: which engine/exec
    counters fired, and roughly how often, without touching simulator
    behavior (it rides the same sink path as the detector battery).
    """

    name = "counter_tap"

    def __init__(self) -> None:
        super().__init__()
        self.counts: Dict[str, int] = {}

    def on_inc(
        self, name: str, time: int, n: int, labels: Mapping[str, object]
    ) -> None:
        self.counts[name] = self.counts.get(name, 0) + n


# ------------------------------------------------------------------ monitors
def monitors_for(scenario: Scenario) -> List[Monitor]:
    """The detector battery, thresholds scaled to the scenario horizon.

    The stock windows (tuned for multi-million-cycle figure runs) would
    never fire inside a short fuzz horizon; scaling them to fractions
    of ``max_cycles`` keeps every detector live while preserving the
    grace semantics.
    """
    horizon = scenario.max_cycles
    budget = (
        float(scenario.soc.budget_mw) if scenario.soc is not None else None
    )
    return default_monitors(
        budget,
        grace_cycles=max(256, horizon // 64),
        starvation_window=max(2_000, horizon // 8),
        stall_cycles=max(10_000, horizon // 3),
        max_backlog=24,
    )


def _event_appliers(scenario: Scenario, engine: CoinExchangeEngine):
    """(cycle, thunk) pairs for the scenario's timed mutations."""
    base_max = engine.snapshot_max()

    def apply_budget_step(percent: int) -> None:
        for tid in range(len(base_max)):
            engine.set_max(tid, base_max[tid] * percent // 100)

    thunks = []
    for ev in scenario.events:
        if ev.kind == "set_max":
            thunks.append((ev.cycle, partial(engine.set_max, ev.tile, ev.value)))
        elif ev.kind == "thermal_cap":
            cap = None if ev.value == -1 else ev.value
            thunks.append(
                (ev.cycle, partial(engine.set_thermal_cap, ev.tile, cap))
            )
        else:  # budget_step
            thunks.append((ev.cycle, partial(apply_budget_step, ev.value)))
    return thunks


def _fingerprint(parts: Dict[str, object]) -> str:
    """A short stable digest over integer-only run state."""
    import hashlib
    import json

    text = json.dumps(parts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def _config_for(scenario: Scenario) -> BlitzCoinConfig:
    config = _CONFIG_BUILDERS[scenario.variant]()
    return dataclasses.replace(
        config,
        exchange_timeout_cycles=256,
        reconcile_delay_cycles=32,
        sanitize=True,
    )


# ----------------------------------------------------------------- execution
def execute_scenario(
    scenario: Scenario,
    *,
    observed: bool = True,
    inject: bool = True,
    on_alert: Optional[Callable[[Alert], None]] = None,
) -> Execution:
    """Run one scenario once; never raises for in-simulation failures.

    ``observed=False`` runs with no sink installed (the differential
    baseline); ``inject=False`` skips installing a fault injector even
    when the plan is null (the null-plan ≡ no-injector check).  Oracle
    violations and crashes come back as :class:`Failure` records.
    ``on_alert`` receives each monitor alert as it is raised, including
    those from the end-of-run flush (ignored when ``observed=False``).
    """
    body = _engine_body if scenario.kind == "engine" else _soc_body
    monitor_set: Optional[MonitorSet] = None
    tap = CounterTap()
    if observed:
        monitor_set = MonitorSet(
            monitors=monitors_for(scenario) + [tap], on_alert=on_alert
        )
        obs_install(monitor_set)
    plan = scenario.fault_plan if inject else None
    failures: List[Failure] = []
    fingerprint = ""
    try:
        with maybe_injecting(plan):
            fingerprint = body(scenario)
    except SanitizerError as exc:
        failures.append(
            Failure(
                oracle="sanitizer",
                key=f"sanitizer:{exc.kind}",
                detail=str(exc).splitlines()[0],
            )
        )
    except EngineError as exc:
        failures.append(
            Failure(
                oracle="sanitizer",
                key="sanitizer:conservation",
                detail=str(exc).splitlines()[0],
            )
        )
    except ExecutorError as exc:
        failures.append(
            Failure(oracle="hang", key="hang:workload", detail=str(exc))
        )
    finally:
        if observed:
            obs_uninstall()
    alerts: List[Alert] = []
    if monitor_set is not None:
        monitor_set.finish()
        alerts = monitor_set.alerts()
    return Execution(
        fingerprint=fingerprint,
        counters=dict(tap.counts),
        alerts=alerts,
        failures=failures,
    )


def _engine_body(scenario: Scenario) -> str:
    """Run an engine scenario; returns its fingerprint."""
    section = scenario.engine
    assert section is not None
    topo = MeshTopology(section.dim, section.dim)
    sim = Simulator()
    noc = BehavioralNoc(sim, topo)
    rng = rng_for(scenario.seed, section.dim)
    initial = random_initial_allocation(
        ScenarioSpec(max_by_tile=list(section.max_by_tile), pool=section.pool),
        rng,
    )
    engine = CoinExchangeEngine(
        sim,
        noc,
        _config_for(scenario),
        list(section.max_by_tile),
        initial,
        rng=rng,
    )
    for cycle, thunk in _event_appliers(scenario, engine):
        sim.schedule(cycle, thunk)
    engine.start()
    sim.run(until=scenario.max_cycles)
    engine.check_conservation()
    tracker = engine.tracker
    return _fingerprint(
        {
            "now": sim.now,
            "converged_at": tracker.converged_at,
            "has": engine.snapshot_has(),
            "max": engine.snapshot_max(),
            "packets": engine.coin_packets,
            "exchanges": engine.exchanges_started,
            "timeouts": engine.exchanges_timed_out,
            "lost": engine.coins_lost,
            "reminted": engine.coins_reminted,
            "discarded": noc.stats.discarded,
        }
    )


def _soc_body(scenario: Scenario) -> str:
    """Run a SoC scenario; returns its fingerprint.

    The engine is built here, after the injector is installed, so
    tile/coin fault events bind to this run's simulator.
    """
    section = scenario.soc
    assert section is not None
    soc = Soc(_SOC_BUILDERS[section.preset]())
    pm = build_pm(PMKind.BLITZCOIN, soc, float(section.budget_mw))
    executor = WorkloadExecutor(soc, section.to_taskgraph(), pm)
    for cycle, thunk in _event_appliers(scenario, pm.engine):
        soc.sim.schedule(cycle, thunk)
    result = executor.run(max_cycles=scenario.max_cycles)
    pm.engine.check_conservation()
    return _fingerprint(
        {
            "makespan": result.makespan_cycles,
            "finishes": sorted(result.task_finish_cycles.items()),
            "starts": sorted(result.task_start_cycles.items()),
            "has": pm.engine.snapshot_has(),
            "packets": pm.engine.coin_packets,
            "timeouts": pm.engine.exchanges_timed_out,
            "lost": pm.engine.coins_lost,
            "reminted": pm.engine.coins_reminted,
            "responses": len(result.response_times_cycles),
        }
    )


# ------------------------------------------------------------------- oracles
#: Monitors whose error alerts are failures even under active fault
#: injection.  A fault plan legitimately causes transient starvation and
#: reconciliation backlog (a big kill dumps a whole tile's holdings into
#: the ledger at once), so those errors are coverage, not verdicts —
#: but the power budget must hold no matter what dies: total coins never
#: exceed the pool, so an overshoot is an accounting bug, not a symptom.
STRICT_MONITORS = ("budget_overshoot",)


def run_oracles(scenario: Scenario) -> FuzzOutcome:
    """Execute a scenario and judge it with the full oracle battery.

    Alert policy: on a *fault-free* scenario any error-severity alert is
    an oracle failure (nothing should degrade without faults); under an
    active fault plan only :data:`STRICT_MONITORS` errors are failures
    and the rest feed coverage.
    """
    primary = execute_scenario(scenario, observed=True, inject=True)
    failures: List[Failure] = list(primary.failures)
    strict = scenario.fault_plan.is_null
    for alert in primary.alerts:
        if alert.severity == "error" and (
            strict or alert.monitor in STRICT_MONITORS
        ):
            failures.append(
                Failure(
                    oracle="monitor",
                    key=f"monitor:{alert.monitor}",
                    detail=(
                        f"[cycle {alert.cycle}"
                        + (f", tile {alert.tile}" if alert.tile is not None else "")
                        + f"] {alert.message}"
                    ),
                )
            )
    # Differential identities only make sense when the observed run
    # completed; a crashed run already failed a stronger oracle.
    if not primary.failures:
        silent = execute_scenario(scenario, observed=False, inject=True)
        if not silent.failures and silent.fingerprint != primary.fingerprint:
            failures.append(
                Failure(
                    oracle="differential",
                    key="differential:obs-identity",
                    detail=(
                        "observed run diverged from unobserved run: "
                        f"{primary.fingerprint} != {silent.fingerprint}"
                    ),
                )
            )
        if scenario.fault_plan.is_null:
            bare = execute_scenario(scenario, observed=False, inject=False)
            if not bare.failures and bare.fingerprint != silent.fingerprint:
                failures.append(
                    Failure(
                        oracle="differential",
                        key="differential:null-plan-identity",
                        detail=(
                            "null fault plan diverged from no injector: "
                            f"{silent.fingerprint} != {bare.fingerprint}"
                        ),
                    )
                )
    from repro.fuzz.coverage import coverage_tokens

    return FuzzOutcome(
        fingerprint=primary.fingerprint,
        failures=tuple(failures),
        coverage=coverage_tokens(scenario, primary),
        counters=dict(primary.counters),
    )
