"""Frozen scenario bundles: everything one fuzz run needs, as data.

A :class:`Scenario` is the fuzzer's unit of work — a complete,
JSON-serializable description of one adversarial simulation:

* an **engine** scenario drives the bare coin-exchange engine on a
  d x d mesh (the Fig. 3/7 substrate) with a per-tile max vector, a
  circulating pool, and timed :class:`ScenarioEvent` mutations
  (demand steps, thermal caps, budget steps);
* a **soc** scenario drives a full managed SoC (Fig. 12 presets)
  through the workload executor with a task DAG and a power budget.

Both kinds carry a :class:`~repro.faults.plan.FaultPlan` and a hard
cycle horizon.  Scenarios are *pure data* and canonically ordered, so
``scenario_hash`` content-addresses them and two runs of the same
scenario are bit-identical — which is what makes repro bundles replay
exactly (docs/FUZZING.md, "replay contract").
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.faults.plan import FaultPlan, FaultPlanError
from repro.workloads.dag import DagError, Task, TaskGraph

__all__ = [
    "EVENT_KINDS",
    "EngineSection",
    "FuzzError",
    "MANAGED_TILES",
    "Scenario",
    "ScenarioEvent",
    "SocSection",
    "SOC_PRESETS",
    "VARIANTS",
]

#: Engine-config variants a scenario may name (see repro.core.config).
VARIANTS = ("1way", "4way", "preferred")

#: SoC presets a soc-kind scenario may name (see repro.soc.presets).
SOC_PRESETS = ("3x3", "4x4")

#: Managed accelerator tiles per preset (CPU/MEM/IO tiles are not in
#: the coin protocol; a thermal cap on one would be rejected by the
#: engine's CSR path).  Mirrors repro.soc.presets — the fixture tests
#: assert this stays in sync.
MANAGED_TILES = {
    "3x3": (1, 2, 3, 4, 5, 7),
    "4x4": (1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 14),
}

#: Timed mutations a scenario can apply to the live engine.
EVENT_KINDS = ("set_max", "thermal_cap", "budget_step")


class FuzzError(ValueError):
    """Raised for malformed scenarios, bundles, or corpus artifacts."""


@dataclass(frozen=True)
class ScenarioEvent:
    """One timed mutation of the running engine.

    * ``set_max`` — demand step: tile ``tile``'s coin target becomes
      ``value`` (engine scenarios only; on a SoC the PM owns targets).
    * ``thermal_cap`` — runtime thermal cap ``value`` on ``tile``
      (``value == -1`` clears the cap), via the CSR path.
    * ``budget_step`` — global budget change: every tile's base max is
      rescaled to ``value`` percent (``tile`` must be -1).
    """

    cycle: int
    kind: str
    tile: int
    value: int

    def __post_init__(self) -> None:
        if self.cycle < 0:
            raise FuzzError(f"event cycle must be >= 0, got {self.cycle}")
        if self.kind not in EVENT_KINDS:
            raise FuzzError(
                f"unknown event kind {self.kind!r}; expected one of "
                f"{EVENT_KINDS}"
            )
        if self.kind == "budget_step":
            if self.tile != -1:
                raise FuzzError("budget_step events are global: tile must be -1")
            if not (0 <= self.value <= 400):
                raise FuzzError(
                    f"budget_step percent must be in [0, 400], got {self.value}"
                )
        else:
            if self.tile < 0:
                raise FuzzError(f"event tile must be >= 0, got {self.tile}")
            if self.kind == "set_max" and self.value < 0:
                raise FuzzError(f"set_max value must be >= 0, got {self.value}")
            if self.kind == "thermal_cap" and self.value < -1:
                raise FuzzError(
                    f"thermal_cap value must be >= -1, got {self.value}"
                )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "cycle": self.cycle,
            "kind": self.kind,
            "tile": self.tile,
            "value": self.value,
        }

    @classmethod
    def from_dict(cls, data: Any) -> "ScenarioEvent":
        if not isinstance(data, dict):
            raise FuzzError(
                f"scenario event must be an object, got {type(data).__name__}"
            )
        try:
            return cls(
                cycle=int(data["cycle"]),
                kind=str(data["kind"]),
                tile=int(data["tile"]),
                value=int(data["value"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, FuzzError):
                raise
            raise FuzzError(f"malformed scenario event: {exc}") from exc


@dataclass(frozen=True)
class EngineSection:
    """The engine-kind payload: mesh size, targets, and the pool."""

    dim: int
    max_by_tile: Tuple[int, ...]
    pool: int

    def __post_init__(self) -> None:
        if not (2 <= self.dim <= 8):
            raise FuzzError(f"engine dim must be in [2, 8], got {self.dim}")
        object.__setattr__(self, "max_by_tile", tuple(self.max_by_tile))
        if len(self.max_by_tile) != self.dim * self.dim:
            raise FuzzError(
                f"max_by_tile needs {self.dim * self.dim} entries, got "
                f"{len(self.max_by_tile)}"
            )
        if any(m < 0 for m in self.max_by_tile):
            raise FuzzError("max_by_tile entries must be >= 0")
        if self.pool < 0:
            raise FuzzError(f"pool must be >= 0, got {self.pool}")

    @property
    def n_tiles(self) -> int:
        return self.dim * self.dim

    def to_dict(self) -> Dict[str, Any]:
        return {
            "dim": self.dim,
            "max_by_tile": list(self.max_by_tile),
            "pool": self.pool,
        }

    @classmethod
    def from_dict(cls, data: Any) -> "EngineSection":
        if not isinstance(data, dict):
            raise FuzzError("engine section must be an object")
        try:
            return cls(
                dim=int(data["dim"]),
                max_by_tile=tuple(int(m) for m in data["max_by_tile"]),
                pool=int(data["pool"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, FuzzError):
                raise
            raise FuzzError(f"malformed engine section: {exc}") from exc


@dataclass(frozen=True)
class SocSection:
    """The soc-kind payload: preset, budget, and the task DAG.

    Tasks are stored as rows
    ``(name, acc_class, work_cycles, deps, tile_hint)`` in topological
    order, so the section serializes canonically and validates through
    the same :class:`~repro.workloads.dag.TaskGraph` machinery the
    executor uses.
    """

    preset: str
    budget_mw: int
    tasks: Tuple[Tuple[str, str, int, Tuple[str, ...], Optional[int]], ...]

    def __post_init__(self) -> None:
        if self.preset not in SOC_PRESETS:
            raise FuzzError(
                f"unknown SoC preset {self.preset!r}; expected one of "
                f"{SOC_PRESETS}"
            )
        if self.budget_mw <= 0:
            raise FuzzError(f"budget_mw must be > 0, got {self.budget_mw}")
        object.__setattr__(
            self,
            "tasks",
            tuple(
                (str(n), str(c), int(w), tuple(d), h)
                for n, c, w, d, h in self.tasks
            ),
        )
        if not self.tasks:
            raise FuzzError("soc scenario needs at least one task")
        self.to_taskgraph()  # validates the DAG

    def to_taskgraph(self) -> TaskGraph:
        try:
            return TaskGraph(
                Task(
                    name=n,
                    acc_class=c,
                    work_cycles=w,
                    deps=deps,
                    tile_hint=hint,
                )
                for n, c, w, deps, hint in self.tasks
            )
        except DagError as exc:
            raise FuzzError(f"invalid task graph: {exc}") from exc

    def to_dict(self) -> Dict[str, Any]:
        return {
            "preset": self.preset,
            "budget_mw": self.budget_mw,
            "tasks": [
                {
                    "name": n,
                    "acc_class": c,
                    "work_cycles": w,
                    "deps": list(deps),
                    "tile_hint": hint,
                }
                for n, c, w, deps, hint in self.tasks
            ],
        }

    @classmethod
    def from_dict(cls, data: Any) -> "SocSection":
        if not isinstance(data, dict):
            raise FuzzError("soc section must be an object")
        try:
            tasks = tuple(
                (
                    str(t["name"]),
                    str(t["acc_class"]),
                    int(t["work_cycles"]),
                    tuple(str(d) for d in t.get("deps", [])),
                    None if t.get("tile_hint") is None else int(t["tile_hint"]),
                )
                for t in data["tasks"]
            )
            return cls(
                preset=str(data["preset"]),
                budget_mw=int(data["budget_mw"]),
                tasks=tasks,
            )
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, FuzzError):
                raise
            raise FuzzError(f"malformed soc section: {exc}") from exc

    @classmethod
    def from_taskgraph(
        cls, graph: TaskGraph, *, preset: str, budget_mw: int
    ) -> "SocSection":
        rows = []
        for name in graph.topological_order():
            task = graph[name]
            rows.append(
                (
                    task.name,
                    task.acc_class,
                    task.work_cycles,
                    tuple(task.deps),
                    task.tile_hint,
                )
            )
        return cls(preset=preset, budget_mw=budget_mw, tasks=tuple(rows))


#: Current on-disk scenario schema version.
SCHEMA = 1


@dataclass(frozen=True)
class Scenario:
    """One complete fuzz scenario (frozen, canonical, hashable)."""

    kind: str
    seed: int
    variant: str = "preferred"
    max_cycles: int = 200_000
    events: Tuple[ScenarioEvent, ...] = ()
    fault_plan: FaultPlan = field(default_factory=FaultPlan)
    engine: Optional[EngineSection] = None
    soc: Optional[SocSection] = None

    def __post_init__(self) -> None:
        if self.kind not in ("engine", "soc"):
            raise FuzzError(
                f"scenario kind must be 'engine' or 'soc', got {self.kind!r}"
            )
        if self.seed < 0:
            raise FuzzError(f"seed must be >= 0, got {self.seed}")
        if self.variant not in VARIANTS:
            raise FuzzError(
                f"unknown config variant {self.variant!r}; expected one of "
                f"{VARIANTS}"
            )
        if self.max_cycles < 1:
            raise FuzzError(f"max_cycles must be >= 1, got {self.max_cycles}")
        # Canonical event order makes equal scenarios hash-equal.
        ordered = tuple(
            sorted(
                self.events,
                key=lambda e: (e.cycle, e.kind, e.tile, e.value),
            )
        )
        object.__setattr__(self, "events", ordered)
        if self.kind == "engine":
            if self.engine is None or self.soc is not None:
                raise FuzzError(
                    "engine scenarios carry exactly the 'engine' section"
                )
            n = self.engine.n_tiles
        else:
            if self.soc is None or self.engine is not None:
                raise FuzzError(
                    "soc scenarios carry exactly the 'soc' section"
                )
            n = {"3x3": 9, "4x4": 16}[self.soc.preset]
        for ev in ordered:
            if ev.cycle >= self.max_cycles:
                raise FuzzError(
                    f"event at cycle {ev.cycle} beyond horizon "
                    f"{self.max_cycles}"
                )
            if ev.kind != "budget_step" and ev.tile >= n:
                raise FuzzError(
                    f"event tile {ev.tile} out of range for {n} tiles"
                )
            if self.kind == "soc":
                if ev.kind in ("set_max", "budget_step"):
                    raise FuzzError(
                        f"{ev.kind} events are engine-only (the PM owns SoC "
                        "coin targets)"
                    )
                assert self.soc is not None
                if ev.tile not in MANAGED_TILES[self.soc.preset]:
                    raise FuzzError(
                        f"tile {ev.tile} is not a managed accelerator on "
                        f"the {self.soc.preset} preset"
                    )
        if not isinstance(self.fault_plan, FaultPlan):
            raise FuzzError("fault_plan must be a FaultPlan")

    # -------------------------------------------------------------- identity
    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "schema": SCHEMA,
            "kind": self.kind,
            "seed": self.seed,
            "variant": self.variant,
            "max_cycles": self.max_cycles,
            "events": [e.to_dict() for e in self.events],
            "fault_plan": self.fault_plan.to_dict(),
        }
        if self.engine is not None:
            doc["engine"] = self.engine.to_dict()
        if self.soc is not None:
            doc["soc"] = self.soc.to_dict()
        return doc

    @classmethod
    def from_dict(cls, data: Any) -> "Scenario":
        if not isinstance(data, dict):
            raise FuzzError(
                f"scenario must be a JSON object, got {type(data).__name__}"
            )
        schema = data.get("schema")
        if schema != SCHEMA:
            raise FuzzError(
                f"unsupported scenario schema {schema!r} (expected {SCHEMA})"
            )
        known = {
            "schema", "kind", "seed", "variant", "max_cycles", "events",
            "fault_plan", "engine", "soc",
        }
        unknown = sorted(set(data) - known)
        if unknown:
            raise FuzzError(
                f"unknown scenario field(s): {', '.join(unknown)}"
            )
        try:
            plan = FaultPlan.from_dict(data.get("fault_plan", {}))
        except FaultPlanError as exc:
            raise FuzzError(f"invalid fault plan: {exc}") from exc
        try:
            return cls(
                kind=str(data.get("kind", "")),
                seed=int(data.get("seed", 0)),
                variant=str(data.get("variant", "preferred")),
                max_cycles=int(data.get("max_cycles", 0)),
                events=tuple(
                    ScenarioEvent.from_dict(e) for e in data.get("events", [])
                ),
                fault_plan=plan,
                engine=(
                    EngineSection.from_dict(data["engine"])
                    if data.get("engine") is not None
                    else None
                ),
                soc=(
                    SocSection.from_dict(data["soc"])
                    if data.get("soc") is not None
                    else None
                ),
            )
        except FuzzError:
            raise
        except (TypeError, ValueError) as exc:
            raise FuzzError(f"malformed scenario: {exc}") from exc

    def canonical_json(self) -> str:
        """Compact, sorted JSON — the hashed and size-measured form."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def to_json(self) -> str:
        """Frozen pretty JSON (the repro-bundle on-disk form)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FuzzError(f"scenario is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    @property
    def scenario_hash(self) -> str:
        """Stable content hash of the canonical JSON form."""
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    @property
    def size(self) -> int:
        """Canonical size in bytes — the metric shrinking must reduce."""
        return len(self.canonical_json())

    def with_fault_plan(self, plan: FaultPlan) -> "Scenario":
        return replace(self, fault_plan=plan)

    def with_events(self, events: Tuple[ScenarioEvent, ...]) -> "Scenario":
        return replace(self, events=events)

    def describe(self) -> str:
        """One human line: kind, size, and the headline knobs."""
        bits: List[str] = [f"kind={self.kind}", f"seed={self.seed}"]
        if self.engine is not None:
            bits.append(f"dim={self.engine.dim}")
            bits.append(f"pool={self.engine.pool}")
        if self.soc is not None:
            bits.append(f"preset={self.soc.preset}")
            bits.append(f"tasks={len(self.soc.tasks)}")
        bits.append(f"events={len(self.events)}")
        plan = self.fault_plan
        n_faults = len(plan.tile_events) + len(plan.coin_loss_events)
        bits.append(
            f"faults={'null' if plan.is_null else n_faults or 'link'}"
        )
        bits.append(f"horizon={self.max_cycles}")
        return " ".join(bits)
