"""RunReport: the frozen per-run scorecard artifact.

A RunReport is what a run *claims about itself*, in one canonical-JSON
file: the configuration it ran (hashed for identity), headline summary
statistics (convergence cycles, packets, power, energy), the full alert
list the online monitors raised (:mod:`repro.obs.monitor`), per-tile
power/energy accounting, and a downsampled power series for plotting.
Reports are written atomically via the campaign store's
temp+fsync+replace helper, so a report either exists complete or not at
all, and two runs of the same configuration produce byte-identical
artifacts — which is what lets :mod:`repro.report.diff` and the CI
golden-report check treat them as regression evidence.

Schema stability: ``schema`` is bumped on any incompatible change, and
:func:`load_run_report` refuses mismatched files loudly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.campaign.spec import canonical_json, _sha256
from repro.core.io import atomic_write_text
from repro.obs.metrics import Histogram
from repro.obs.monitor import Alert, MonitorSet, final_coin_levels
from repro.obs.sink import Observation

__all__ = [
    "REPORT_SCHEMA",
    "ReportError",
    "RunReport",
    "campaign_report",
    "convergence_report",
    "load_run_report",
    "scenario_report",
    "soc_report",
    "write_run_report",
]

#: Bumped on any incompatible change to the report layout.
REPORT_SCHEMA = 1

#: Known report kinds; ``diff`` refuses to compare across kinds.
#: (Additive extension: "scenario" covers single fuzz-scenario runs
#: executed through repro.serve.)
REPORT_KINDS = ("soc", "convergence", "campaign", "scenario")

#: Value-bucket edges for cycle-count quantiles (wide, log-spaced).
_CYCLE_BOUNDS: Tuple[int, ...] = tuple(2**k for k in range(4, 32, 2))


class ReportError(ValueError):
    """Raised for malformed, unreadable, or schema-mismatched reports."""


def _finite(value: float) -> float:
    """Round-trippable float for canonical JSON (NaN/inf are banned)."""
    v = float(value)
    if not math.isfinite(v):
        raise ReportError(f"non-finite value {value!r} in report")
    return round(v, 6)


@dataclass(frozen=True)
class RunReport:
    """One run's frozen scorecard.  All cycle values are NoC cycles."""

    kind: str
    label: str
    #: The JSON-encoded configuration that produced the run; hashed by
    #: :attr:`config_hash` for identity checks across reports.
    config: Dict[str, Any]
    #: Flat name -> number map; every key is diffable.
    summary: Dict[str, Any]
    #: Alert records (``Alert.to_dict`` shape), cycle order.
    alerts: List[Dict[str, Any]] = field(default_factory=list)
    #: Alert count per monitor name (zero counts included).
    alert_counts: Dict[str, int] = field(default_factory=dict)
    #: Per-tile accounting rows (tile id order).
    tiles: List[Dict[str, Any]] = field(default_factory=list)
    #: (width, height) of the tile grid, when the run has one.
    grid: Optional[Tuple[int, int]] = None
    #: Named plottable series, each ``{"x": [...], "y": [...], ...}``.
    series: Dict[str, Any] = field(default_factory=dict)
    #: Metrics-registry rows (``MetricsRegistry.as_rows`` shape).
    metrics: List[Dict[str, Any]] = field(default_factory=list)
    schema: int = REPORT_SCHEMA

    def __post_init__(self) -> None:
        if self.kind not in REPORT_KINDS:
            raise ReportError(
                f"unknown report kind {self.kind!r}; "
                f"expected one of {REPORT_KINDS}"
            )
        if self.grid is not None:
            object.__setattr__(
                self, "grid", (int(self.grid[0]), int(self.grid[1]))
            )

    @property
    def config_hash(self) -> str:
        """sha256 of the canonical-JSON config (name-independent id)."""
        return _sha256(canonical_json(self.config))

    # ------------------------------------------------------------- transport
    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "kind": self.kind,
            "label": self.label,
            "config": self.config,
            "config_hash": self.config_hash,
            "summary": self.summary,
            "alerts": self.alerts,
            "alert_counts": self.alert_counts,
            "tiles": self.tiles,
            "grid": list(self.grid) if self.grid is not None else None,
            "series": self.series,
            "metrics": self.metrics,
        }

    def to_json(self) -> str:
        """Canonical JSON: byte-identical for identical runs."""
        return canonical_json(self.to_dict()) + "\n"

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "RunReport":
        if not isinstance(doc, Mapping):
            raise ReportError(f"report must be a JSON object, got {type(doc).__name__}")
        schema = doc.get("schema")
        if schema != REPORT_SCHEMA:
            raise ReportError(
                f"unsupported report schema {schema!r} "
                f"(this build reads schema {REPORT_SCHEMA})"
            )
        kind = doc.get("kind")
        if kind not in REPORT_KINDS:
            raise ReportError(
                f"unknown report kind {kind!r}; expected one of {REPORT_KINDS}"
            )
        summary = doc.get("summary")
        if not isinstance(summary, Mapping):
            raise ReportError("report has no 'summary' object")
        grid = doc.get("grid")
        return cls(
            kind=str(kind),
            label=str(doc.get("label", "")),
            config=dict(doc.get("config") or {}),
            summary=dict(summary),
            alerts=list(doc.get("alerts") or []),
            alert_counts={
                str(k): int(v)
                for k, v in dict(doc.get("alert_counts") or {}).items()
            },
            tiles=list(doc.get("tiles") or []),
            grid=None if grid is None else (int(grid[0]), int(grid[1])),
            series=dict(doc.get("series") or {}),
            metrics=list(doc.get("metrics") or []),
            schema=int(schema),
        )


# ----------------------------------------------------------------- alert prep
def _alert_payload(
    alerts: Optional[Sequence[Alert]],
    monitors: Optional[MonitorSet],
) -> Tuple[List[Dict[str, Any]], Dict[str, int]]:
    """Alert dicts + per-monitor counts from whichever source exists."""
    if monitors is not None:
        monitors.finish()
        records = monitors.alerts()
        counts = monitors.alert_counts()
    else:
        records = sorted(
            alerts or [], key=lambda a: (a.epoch, a.cycle, a.monitor)
        )
        counts = {}
        for alert in records:
            counts[alert.monitor] = counts.get(alert.monitor, 0) + 1
    return [a.to_dict() for a in records], counts


def _registry_rows(session: Optional[Observation]) -> List[Dict[str, Any]]:
    return session.registry.as_rows() if session is not None else []


def _quantiles(histogram: Histogram) -> Dict[str, Any]:
    summary = histogram.quantile_summary()
    return {
        k: (None if v is None else _finite(v)) for k, v in summary.items()
    }


# ---------------------------------------------------------------- soc reports
def soc_report(
    result: Any,
    *,
    label: str,
    monitors: Optional[MonitorSet] = None,
    grid: Optional[Tuple[int, int]] = None,
    n_points: int = 240,
) -> RunReport:
    """Scorecard for one :class:`~repro.soc.executor.SocRunResult`.

    ``monitors`` (a :class:`MonitorSet`) supplies both alerts and —
    through its wrapped observation — the metrics snapshot and final
    coin levels.
    """
    session = monitors.observation if monitors is not None else None
    alert_rows, alert_counts = _alert_payload(None, monitors)

    response = Histogram("response_us", bounds=_CYCLE_BOUNDS)
    for i, cycles in enumerate(result.response_times_cycles):
        response.observe(i, cycles)

    summary: Dict[str, Any] = {
        "makespan_us": _finite(result.makespan_us),
        "mean_response_us": _finite(result.mean_response_us),
        "peak_power_mw": _finite(result.peak_power_mw()),
        "average_power_mw": _finite(result.average_power_mw()),
        "energy_mj": _finite(result.energy_mj()),
        "budget_mw": _finite(result.budget_mw),
        "budget_utilization": _finite(result.budget_utilization()),
        "budget_violation_mw": _finite(result.budget_violation_mw()),
        "tasks": len(result.task_finish_cycles),
        "response_samples": len(result.response_times_cycles),
        "response_cycles": _quantiles(response),
    }

    coins = final_coin_levels(session) if session is not None else {}
    tiles: List[Dict[str, Any]] = []
    for tid in sorted(result.managed_tiles):
        trace = result.recorder.get(f"power/{tid}")
        mean_mw = 0.0
        peak_mw = 0.0
        if trace is not None and result.makespan_cycles > 0:
            mean_mw = trace.integral(0, result.makespan_cycles) / (
                result.makespan_cycles
            )
            peak_mw = max(
                (trace.value_at(t) for t in trace.times), default=0.0
            )
        tiles.append(
            {
                "tile": tid,
                "mean_power_mw": _finite(mean_mw),
                "peak_power_mw": _finite(peak_mw),
                "energy_share": _finite(
                    mean_mw / result.average_power_mw()
                    if result.average_power_mw() > 0
                    else 0.0
                ),
                "final_coins": coins.get(tid),
            }
        )

    times_us, totals = result.power_series(n_points)
    series = {
        "power_mw": {
            "x_us": [_finite(t) for t in times_us.tolist()],
            "y_mw": [_finite(p) for p in totals.tolist()],
            "budget_mw": _finite(result.budget_mw),
        }
    }

    return RunReport(
        kind="soc",
        label=label,
        config={
            "soc": result.soc_name,
            "pm": result.pm_name,
            "budget_mw": _finite(result.budget_mw),
        },
        summary=summary,
        alerts=alert_rows,
        alert_counts=alert_counts,
        tiles=tiles,
        grid=grid,
        series=series,
        metrics=_registry_rows(session),
    )


# -------------------------------------------------------- convergence reports
def convergence_report(
    results: Sequence[Any],
    *,
    label: str,
    d: int,
    config: Optional[Mapping[str, Any]] = None,
    monitors: Optional[MonitorSet] = None,
) -> RunReport:
    """Scorecard over a batch of convergence :class:`TrialResult`\\ s."""
    if not results:
        raise ReportError("convergence_report needs at least one trial")
    session = monitors.observation if monitors is not None else None
    alert_rows, alert_counts = _alert_payload(None, monitors)

    cycles = Histogram("cycles", bounds=_CYCLE_BOUNDS)
    packets = Histogram("packets", bounds=_CYCLE_BOUNDS)
    converged = 0
    totals = {
        "exchanges": 0,
        "coins_lost": 0,
        "coins_reconciled": 0,
        "packets_discarded": 0,
        "timeouts": 0,
    }
    for i, trial in enumerate(results):
        if trial.converged and trial.cycles is not None:
            converged += 1
            cycles.observe(i, trial.cycles)
        packets.observe(i, trial.packets)
        for name in sorted(totals):
            totals[name] += getattr(trial, name)

    summary: Dict[str, Any] = {
        "trials": len(results),
        "converged": converged,
        "convergence_rate": _finite(converged / len(results)),
        "cycles": _quantiles(cycles),
        "packets": _quantiles(packets),
    }
    for name in sorted(totals):
        summary[name] = totals[name]

    return RunReport(
        kind="convergence",
        label=label,
        config={"d": int(d), "config": dict(config or {})},
        summary=summary,
        alerts=alert_rows,
        alert_counts=alert_counts,
        grid=(int(d), int(d)),
        metrics=_registry_rows(session),
    )


# ----------------------------------------------------------- campaign reports
def campaign_report(run: Any) -> RunReport:
    """Scorecard for a whole :class:`~repro.campaign.executor.CampaignRun`.

    Aggregates mean/min/max over every numeric field common to the
    unit results.  Deliberately excludes run bookkeeping (cached /
    executed / workers): a warm-cache rerun of the same spec must
    produce a byte-identical report, or the CI golden diff would flag
    caching as a regression.
    """
    spec = run.spec
    if not run.results:
        raise ReportError(f"campaign {spec.name!r} produced no results")

    summary: Dict[str, Any] = {
        "units": len(run.results),
        "points": len(spec.points()),
    }
    numeric: Dict[str, List[float]] = {}
    for result in run.results:
        for key in sorted(result):
            value = result[key]
            if isinstance(value, bool):
                value = int(value)
            if isinstance(value, (int, float)) and math.isfinite(value):
                numeric.setdefault(key, []).append(float(value))
    for key in sorted(numeric):
        values = numeric[key]
        summary[f"{key}.mean"] = _finite(sum(values) / len(values))
        summary[f"{key}.min"] = _finite(min(values))
        summary[f"{key}.max"] = _finite(max(values))

    return RunReport(
        kind="campaign",
        label=spec.name,
        config=spec.to_dict(),
        summary=summary,
    )


# ----------------------------------------------------------- scenario reports
def scenario_report(scenario: Any, execution: Any, *, label: str) -> RunReport:
    """Scorecard for one fuzz :class:`Scenario` execution.

    ``scenario`` is a :class:`repro.fuzz.scenario.Scenario` and
    ``execution`` the :class:`repro.fuzz.oracles.Execution` it produced.
    The fingerprint rides in the summary as a string — strings are
    identity metadata to :mod:`repro.report.diff`, not diffable values —
    while counters and failure counts are the numeric surface.
    """
    summary: Dict[str, Any] = {
        "fingerprint": str(execution.fingerprint),
        "failures": len(execution.failures),
        "alerts": len(execution.alerts),
        "max_cycles": int(scenario.max_cycles),
    }
    for name in sorted(execution.counters):
        summary[f"counter.{name}"] = int(execution.counters[name])
    alert_rows, alert_counts = _alert_payload(execution.alerts, None)
    grid = None
    if scenario.kind == "engine" and scenario.engine is not None:
        grid = (int(scenario.engine.dim), int(scenario.engine.dim))
    return RunReport(
        kind="scenario",
        label=label,
        config=scenario.to_dict(),
        summary=summary,
        alerts=alert_rows,
        alert_counts=alert_counts,
        grid=grid,
    )


# ------------------------------------------------------------------ artifacts
def write_run_report(report: RunReport, path: Union[str, Path]) -> Path:
    """Atomically persist ``report`` as canonical JSON."""
    return atomic_write_text(Path(path), report.to_json())


def load_run_report(path: Union[str, Path]) -> RunReport:
    """Read and validate a report; :class:`ReportError` on any defect."""
    p = Path(path)
    try:
        text = p.read_text()
    except FileNotFoundError:
        raise ReportError(f"report not found: {p}") from None
    except OSError as exc:
        raise ReportError(f"cannot read report {p}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ReportError(f"corrupt report {p}: {exc}") from exc
    try:
        return RunReport.from_dict(doc)
    except ReportError as exc:
        raise ReportError(f"{p}: {exc}") from None
