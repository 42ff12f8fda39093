"""Declarative fault plans: *what* goes wrong, *where*, and *when*.

A :class:`FaultPlan` is a frozen, JSON-serializable description of every
fault a run should experience:

* **link faults** — per-packet drop / duplicate / corrupt / delay
  probabilities, globally or per directed link;
* **tile faults** — kill / hang / revive events at absolute sim cycles;
* **coin-loss events** — discrete coin disappearances (modeling register
  upsets), exercised against the engine's reconciliation path.

Plans are pure data; :mod:`repro.faults.injector` turns one into
deterministic per-packet decisions.  Probabilities are interpreted
against a counter-hash stream derived from ``seed`` (no shared RNG
state), so the same plan over the same run is bit-reproducible.

All cycle fields are absolute simulation times in NoC cycles.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, Tuple, Union

__all__ = [
    "CoinLossEvent",
    "FaultPlan",
    "FaultPlanError",
    "LinkFaultRates",
    "TileFaultEvent",
    "load_fault_plan",
]

#: Tile-fault actions understood by the engine binding.
TILE_ACTIONS = ("kill", "hang", "revive")


class FaultPlanError(ValueError):
    """Raised for malformed or inconsistent fault plans."""


@dataclass(frozen=True)
class LinkFaultRates:
    """Per-packet fault probabilities on a link (or fabric-wide).

    ``drop``, ``duplicate`` and ``corrupt`` are mutually exclusive
    outcomes of a single per-packet draw, so their sum must stay <= 1.
    ``delay`` is drawn independently; a delayed packet waits an extra
    1..``max_delay_cycles`` cycles (in NoC cycles) before transport.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    corrupt: float = 0.0
    delay: float = 0.0
    max_delay_cycles: int = 32

    def __post_init__(self) -> None:
        for name in ("drop", "duplicate", "corrupt", "delay"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise FaultPlanError(
                    f"{name} rate must be in [0, 1], got {value}"
                )
        if self.drop + self.duplicate + self.corrupt > 1.0:
            raise FaultPlanError(
                "drop + duplicate + corrupt must be <= 1 (exclusive "
                f"outcomes), got {self.drop + self.duplicate + self.corrupt}"
            )
        if self.max_delay_cycles < 1:
            raise FaultPlanError(
                f"max_delay_cycles must be >= 1, got {self.max_delay_cycles}"
            )

    @property
    def is_null(self) -> bool:
        """True when no packet fault can ever fire at these rates."""
        return (
            self.drop == 0.0
            and self.duplicate == 0.0
            and self.corrupt == 0.0
            and self.delay == 0.0
        )


@dataclass(frozen=True)
class TileFaultEvent:
    """Kill, hang, or revive one tile at an absolute cycle.

    * ``kill`` — the tile stops participating, its handler detaches, and
      its held coins are *lost* (then reconciled by the engine).
    * ``hang`` — the tile stops responding but keeps its coins (a wedged
      FSM); partners see timeouts.
    * ``revive`` — a killed/hung tile rejoins with its saved target.
    """

    cycle: int
    tile: int
    action: str

    def __post_init__(self) -> None:
        if self.cycle < 0:
            raise FaultPlanError(f"event cycle must be >= 0, got {self.cycle}")
        if self.tile < 0:
            raise FaultPlanError(f"event tile must be >= 0, got {self.tile}")
        if self.action not in TILE_ACTIONS:
            raise FaultPlanError(
                f"unknown tile action {self.action!r}; "
                f"expected one of {TILE_ACTIONS}"
            )


@dataclass(frozen=True)
class CoinLossEvent:
    """Erase up to ``coins`` coins held by ``tile`` at ``cycle``.

    Models a register upset; the engine's reconciliation re-mints the
    lost coins against the budget after its detection delay.
    """

    cycle: int
    tile: int
    coins: int

    def __post_init__(self) -> None:
        if self.cycle < 0:
            raise FaultPlanError(f"event cycle must be >= 0, got {self.cycle}")
        if self.tile < 0:
            raise FaultPlanError(f"event tile must be >= 0, got {self.tile}")
        if self.coins < 1:
            raise FaultPlanError(
                f"coin-loss event must lose >= 1 coin, got {self.coins}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """Everything that goes wrong in one run.

    ``link`` applies fabric-wide; ``link_overrides`` replaces it on
    specific directed (src, dst) pairs.  ``seed`` selects the
    deterministic decision stream (two plans differing only in seed
    produce different-but-reproducible fault patterns).
    """

    seed: int = 0
    link: LinkFaultRates = LinkFaultRates()
    link_overrides: Tuple[Tuple[int, int, LinkFaultRates], ...] = ()
    tile_events: Tuple[TileFaultEvent, ...] = ()
    coin_loss_events: Tuple[CoinLossEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "link_overrides", tuple(self.link_overrides))
        object.__setattr__(self, "tile_events", tuple(self.tile_events))
        object.__setattr__(
            self, "coin_loss_events", tuple(self.coin_loss_events)
        )
        seen = set()
        for entry in self.link_overrides:
            src, dst, rates = entry
            if src < 0 or dst < 0:
                raise FaultPlanError(
                    f"link override endpoints must be >= 0, got {src}->{dst}"
                )
            if not isinstance(rates, LinkFaultRates):
                raise FaultPlanError(
                    f"link override {src}->{dst} must carry LinkFaultRates"
                )
            if (src, dst) in seen:
                raise FaultPlanError(
                    f"duplicate link override for {src}->{dst}"
                )
            seen.add((src, dst))

    # ----------------------------------------------------------- properties
    @property
    def is_null(self) -> bool:
        """True when this plan injects nothing at all."""
        return (
            self.link.is_null
            and all(r.is_null for _, _, r in self.link_overrides)
            and not self.tile_events
            and not self.coin_loss_events
        )

    @property
    def has_packet_faults(self) -> bool:
        """True when any per-packet fault could fire (fast-path gate)."""
        if not self.link.is_null:
            return True
        return any(not r.is_null for _, _, r in self.link_overrides)

    def with_seed(self, seed: int) -> "FaultPlan":
        """The same plan under a different decision stream."""
        return replace(self, seed=seed)

    # ----------------------------------------------------------------- json
    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready plain-dict form (inverse of :meth:`from_dict`)."""
        return {
            "seed": self.seed,
            "link": asdict(self.link),
            "link_overrides": [
                {"src": s, "dst": d, **asdict(r)}
                for s, d, r in self.link_overrides
            ],
            "tile_events": [asdict(e) for e in self.tile_events],
            "coin_loss_events": [asdict(e) for e in self.coin_loss_events],
        }

    @classmethod
    def from_dict(cls, data: Any) -> "FaultPlan":
        """Build a plan from a plain dict, validating every field."""
        if not isinstance(data, dict):
            raise FaultPlanError(
                f"fault plan must be a JSON object, got {type(data).__name__}"
            )
        known = {
            "seed",
            "link",
            "link_overrides",
            "tile_events",
            "coin_loss_events",
        }
        unknown = sorted(set(data) - known)
        if unknown:
            raise FaultPlanError(
                f"unknown fault-plan field(s): {', '.join(unknown)}"
            )
        try:
            link = _rates_from(data.get("link", {}))
            overrides = []
            for entry in data.get("link_overrides", []):
                if not isinstance(entry, dict):
                    raise FaultPlanError(
                        "each link override must be an object with src/dst"
                    )
                src = _int_field(entry, "src")
                dst = _int_field(entry, "dst")
                rest = {
                    k: v for k, v in entry.items() if k not in ("src", "dst")
                }
                overrides.append((src, dst, _rates_from(rest)))
            tile_events = tuple(
                TileFaultEvent(
                    cycle=_int_field(e, "cycle"),
                    tile=_int_field(e, "tile"),
                    action=str(e.get("action", "")),
                )
                for e in data.get("tile_events", [])
            )
            coin_events = tuple(
                CoinLossEvent(
                    cycle=_int_field(e, "cycle"),
                    tile=_int_field(e, "tile"),
                    coins=_int_field(e, "coins"),
                )
                for e in data.get("coin_loss_events", [])
            )
            return cls(
                seed=_int_field(data, "seed") if "seed" in data else 0,
                link=link,
                link_overrides=tuple(overrides),
                tile_events=tile_events,
                coin_loss_events=coin_events,
            )
        except FaultPlanError:
            raise
        except (TypeError, ValueError, AttributeError) as exc:
            raise FaultPlanError(f"malformed fault plan: {exc}") from exc

    def to_json(self, *, indent: int = 2) -> str:
        """The plan serialized as JSON text."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse a plan from JSON text."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"fault plan is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def save(self, path: Union[str, Path]) -> Path:
        """Write the plan to ``path`` as JSON; returns the path."""
        out = Path(path)
        out.write_text(self.to_json() + "\n")
        return out

    @classmethod
    def uniform(
        cls,
        *,
        drop: float = 0.0,
        duplicate: float = 0.0,
        corrupt: float = 0.0,
        delay: float = 0.0,
        max_delay_cycles: int = 32,
        seed: int = 0,
    ) -> "FaultPlan":
        """A fabric-wide plan with one set of link rates (CLI shorthand)."""
        return cls(
            seed=seed,
            link=LinkFaultRates(
                drop=drop,
                duplicate=duplicate,
                corrupt=corrupt,
                delay=delay,
                max_delay_cycles=max_delay_cycles,
            ),
        )


def _rates_from(data: Any) -> LinkFaultRates:
    if not isinstance(data, dict):
        raise FaultPlanError(
            f"link rates must be an object, got {type(data).__name__}"
        )
    known = {"drop", "duplicate", "corrupt", "delay", "max_delay_cycles"}
    unknown = sorted(set(data) - known)
    if unknown:
        raise FaultPlanError(
            f"unknown link-rate field(s): {', '.join(unknown)}"
        )
    return LinkFaultRates(
        drop=float(data.get("drop", 0.0)),
        duplicate=float(data.get("duplicate", 0.0)),
        corrupt=float(data.get("corrupt", 0.0)),
        delay=float(data.get("delay", 0.0)),
        max_delay_cycles=int(data.get("max_delay_cycles", 32)),
    )


def _int_field(data: Dict[str, Any], name: str) -> int:
    if name not in data:
        raise FaultPlanError(f"missing required field {name!r}")
    value = data[name]
    if isinstance(value, bool) or not isinstance(value, int):
        raise FaultPlanError(
            f"field {name!r} must be an integer, got {value!r}"
        )
    return value


def load_fault_plan(path: Union[str, Path]) -> FaultPlan:
    """Load and validate a :class:`FaultPlan` from a JSON file."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise FaultPlanError(f"cannot read fault plan {p}: {exc}") from exc
    return FaultPlan.from_json(text)
