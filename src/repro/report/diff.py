"""Cross-run regression diffing over RunReport artifacts.

``diff_reports(baseline, candidate)`` walks the two reports' flattened
summary statistics plus their alert counts and classifies every metric
as ok / improved / regressed against a :class:`Thresholds` policy.  The
policy is directional: for most metrics (cycles, packets, energy,
alerts) *more is worse*; for a few (convergence rate, budget
utilization) *less is worse*.  The CLI maps a non-empty regression list
to exit code 3, which is what lets CI hold every PR to a committed
golden report.

Threshold files are plain JSON::

    {
      "default": {"rel": 0.05, "abs": 1e-9, "direction": "increase"},
      "metrics": {
        "alerts.*":        {"rel": 0.0, "abs": 0.0},
        "cycles.p99":      {"rel": 0.10},
        "convergence_rate": {"direction": "decrease"}
      }
    }

``metrics`` keys match exact metric names or ``prefix.*`` globs; the
most specific match wins (exact beats glob, longer glob beats shorter).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.report.run_report import RunReport

__all__ = [
    "DEFAULT_THRESHOLDS",
    "DiffError",
    "DiffRow",
    "ReportDiff",
    "Thresholds",
    "ThresholdRule",
    "diff_flat",
    "diff_reports",
    "format_diff_table",
    "load_thresholds",
]

#: Regression directions: which way a metric gets *worse*.
DIRECTIONS = ("increase", "decrease")


class DiffError(ValueError):
    """Raised for incomparable reports or malformed threshold files."""


@dataclass(frozen=True)
class ThresholdRule:
    """When does a delta on one metric count as a regression?

    A candidate value regresses when it moves in the *worse* direction
    by more than ``rel`` (fractional, against the baseline magnitude)
    AND more than ``abs`` (absolute floor, so near-zero baselines don't
    amplify noise into regressions).
    """

    rel: float = 0.05
    abs: float = 1e-9
    direction: str = "increase"

    def __post_init__(self) -> None:
        if self.rel < 0 or self.abs < 0:
            raise DiffError(
                f"threshold rel/abs must be >= 0, got rel={self.rel} "
                f"abs={self.abs}"
            )
        if self.direction not in DIRECTIONS:
            raise DiffError(
                f"unknown threshold direction {self.direction!r}; "
                f"expected one of {DIRECTIONS}"
            )

    def judge(self, baseline: float, candidate: float) -> str:
        """'ok' | 'regressed' | 'improved' for one metric pair."""
        delta = candidate - baseline
        if self.direction == "decrease":
            delta = -delta  # now: positive delta == worse, uniformly
        if abs(candidate - baseline) <= self.abs:
            return "ok"
        limit = self.rel * abs(baseline)
        if delta > limit:
            return "regressed"
        if delta < -limit:
            return "improved"
        return "ok"


@dataclass(frozen=True)
class Thresholds:
    """A default rule plus per-metric overrides (exact or ``x.*`` glob)."""

    default: ThresholdRule = field(default_factory=ThresholdRule)
    metrics: Mapping[str, ThresholdRule] = field(default_factory=dict)

    def rule_for(self, metric: str) -> ThresholdRule:
        exact = self.metrics.get(metric)
        if exact is not None:
            return exact
        best: Optional[Tuple[int, ThresholdRule]] = None
        for pattern in sorted(self.metrics):
            if not pattern.endswith(".*"):
                continue
            prefix = pattern[:-1]  # keep the dot: "alerts."
            if metric.startswith(prefix):
                if best is None or len(prefix) > best[0]:
                    best = (len(prefix), self.metrics[pattern])
        if best is not None:
            return best[1]
        return self.default


def _decode_rule(
    doc: Mapping[str, Any], *, base: ThresholdRule, where: str
) -> ThresholdRule:
    if not isinstance(doc, Mapping):
        raise DiffError(f"{where}: threshold rule must be an object")
    unknown = sorted(set(doc) - {"rel", "abs", "direction"})
    if unknown:
        raise DiffError(f"{where}: unknown threshold keys {unknown}")
    try:
        return ThresholdRule(
            rel=float(doc.get("rel", base.rel)),
            abs=float(doc.get("abs", base.abs)),
            direction=str(doc.get("direction", base.direction)),
        )
    except (TypeError, ValueError) as exc:
        raise DiffError(f"{where}: {exc}") from None


def load_thresholds(path: Union[str, Path]) -> Thresholds:
    """Parse a threshold JSON file; :class:`DiffError` on any defect."""
    p = Path(path)
    try:
        text = p.read_text()
    except FileNotFoundError:
        raise DiffError(f"thresholds file not found: {p}") from None
    except OSError as exc:
        raise DiffError(f"cannot read thresholds {p}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DiffError(f"invalid thresholds JSON in {p}: {exc}") from exc
    if not isinstance(doc, Mapping):
        raise DiffError(f"{p}: thresholds file must be a JSON object")
    unknown = sorted(set(doc) - {"default", "metrics"})
    if unknown:
        raise DiffError(f"{p}: unknown top-level keys {unknown}")
    default = _decode_rule(
        doc.get("default", {}), base=ThresholdRule(), where=f"{p}: default"
    )
    metrics_doc = doc.get("metrics", {})
    if not isinstance(metrics_doc, Mapping):
        raise DiffError(f"{p}: 'metrics' must be an object")
    metrics = {
        str(name): _decode_rule(
            metrics_doc[name], base=default, where=f"{p}: metrics[{name}]"
        )
        for name in sorted(metrics_doc)
    }
    return Thresholds(default=default, metrics=metrics)


#: The CI policy: any new alert is a regression; rate-like metrics
#: regress downward; everything else regresses upward past 5%.
DEFAULT_THRESHOLDS = Thresholds(
    default=ThresholdRule(rel=0.05, abs=1e-9, direction="increase"),
    metrics={
        "alerts.*": ThresholdRule(rel=0.0, abs=0.0, direction="increase"),
        "convergence_rate": ThresholdRule(direction="decrease"),
        "converged": ThresholdRule(direction="decrease"),
        "converged.mean": ThresholdRule(direction="decrease"),
        "converged.min": ThresholdRule(direction="decrease"),
        "budget_utilization": ThresholdRule(direction="decrease"),
    },
)


@dataclass(frozen=True)
class DiffRow:
    """One compared metric."""

    metric: str
    baseline: Optional[float]
    candidate: Optional[float]
    status: str  # ok | improved | regressed | added | removed

    @property
    def delta(self) -> Optional[float]:
        if self.baseline is None or self.candidate is None:
            return None
        return self.candidate - self.baseline

    @property
    def ratio(self) -> Optional[float]:
        if self.baseline in (None, 0) or self.candidate is None:
            return None
        assert self.baseline is not None
        return self.candidate / self.baseline


@dataclass(frozen=True)
class ReportDiff:
    """The full comparison: every metric row, regressions separated."""

    baseline_label: str
    candidate_label: str
    rows: List[DiffRow]

    @property
    def regressions(self) -> List[DiffRow]:
        return [r for r in self.rows if r.status == "regressed"]

    @property
    def regressed(self) -> bool:
        return bool(self.regressions)


def _flatten(prefix: str, value: Any, out: Dict[str, float]) -> None:
    """Flatten nested summary dicts into dotted numeric leaves."""
    if isinstance(value, bool):
        out[prefix] = float(int(value))
    elif isinstance(value, (int, float)):
        out[prefix] = float(value)
    elif isinstance(value, Mapping):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else str(key), value[key], out)
    # strings/lists/None are identity metadata, not diffable metrics


def flat_metrics(report: RunReport) -> Dict[str, float]:
    """The diffable view of one report: summary leaves + alert counts.

    Alert counts appear as ``alerts.<monitor>`` plus an ``alerts.total``
    roll-up; a monitor absent from the report counts as zero on the
    other side (handled by the caller via the union of keys).
    """
    out: Dict[str, float] = {}
    _flatten("", dict(report.summary), out)
    total = 0
    for monitor in sorted(report.alert_counts):
        count = int(report.alert_counts[monitor])
        out[f"alerts.{monitor}"] = float(count)
        total += count
    out["alerts.total"] = float(total)
    return out


def diff_flat(
    baseline_label: str,
    candidate_label: str,
    baseline: Mapping[str, float],
    candidate: Mapping[str, float],
    thresholds: Optional[Thresholds] = None,
    *,
    zero_default_prefixes: Tuple[str, ...] = (),
) -> ReportDiff:
    """Diff two flat ``metric -> value`` maps under a threshold policy.

    This is the reusable core of :func:`diff_reports`: any artifact
    that can flatten itself to dotted numeric leaves (RunReports,
    ``BENCH_*.json`` benchmark artifacts) gets the same directional
    classification and rc-3 regression semantics.  Metrics whose name
    starts with one of ``zero_default_prefixes`` treat absence on one
    side as 0.0 rather than as an added/removed schema difference.
    """
    policy = thresholds if thresholds is not None else DEFAULT_THRESHOLDS
    rows: List[DiffRow] = []
    for metric in sorted(set(baseline) | set(candidate)):
        va = baseline.get(metric)
        vb = candidate.get(metric)
        if metric.startswith(zero_default_prefixes or ()):
            va = 0.0 if va is None else va
            vb = 0.0 if vb is None else vb
        if va is None:
            rows.append(DiffRow(metric, None, vb, "added"))
            continue
        if vb is None:
            rows.append(DiffRow(metric, va, None, "removed"))
            continue
        status = policy.rule_for(metric).judge(va, vb)
        rows.append(DiffRow(metric, va, vb, status))
    return ReportDiff(
        baseline_label=baseline_label,
        candidate_label=candidate_label,
        rows=rows,
    )


def diff_reports(
    baseline: RunReport,
    candidate: RunReport,
    thresholds: Optional[Thresholds] = None,
) -> ReportDiff:
    """Compare two reports of the same kind, metric by metric."""
    if baseline.kind != candidate.kind:
        raise DiffError(
            f"cannot diff a {baseline.kind!r} report against a "
            f"{candidate.kind!r} report"
        )
    # A monitor that raised nothing on one side is a 0, not a schema
    # difference — hence the alerts.* zero-default.
    return diff_flat(
        baseline.label,
        candidate.label,
        flat_metrics(baseline),
        flat_metrics(candidate),
        thresholds,
        zero_default_prefixes=("alerts.",),
    )


# ------------------------------------------------------------------ rendering
def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.4g}"


_STATUS_MARK = {
    "ok": " ",
    "improved": "+",
    "regressed": "!",
    "added": "?",
    "removed": "?",
}


def format_diff_table(
    diff: ReportDiff, *, only_changed: bool = False
) -> List[str]:
    """Readable fixed-width table, regressions marked with ``!``."""
    rows = diff.rows
    if only_changed:
        rows = [r for r in rows if r.status != "ok"]
    width = max([len(r.metric) for r in rows] + [len("metric")])
    lines = [
        f"diff: {diff.baseline_label!r} (baseline) vs "
        f"{diff.candidate_label!r} (candidate)",
        f"  {'metric':<{width}}  {'baseline':>12}  {'candidate':>12}  "
        f"{'delta':>10}  status",
    ]
    for row in rows:
        mark = _STATUS_MARK.get(row.status, " ")
        lines.append(
            f"{mark} {row.metric:<{width}}  {_fmt(row.baseline):>12}  "
            f"{_fmt(row.candidate):>12}  {_fmt(row.delta):>10}  {row.status}"
        )
    regressions = diff.regressions
    if regressions:
        lines.append(
            f"REGRESSED: {len(regressions)} metric(s) worse than baseline"
        )
    else:
        lines.append("no regressions")
    return lines
