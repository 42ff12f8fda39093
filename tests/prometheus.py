"""Strict Prometheus text-format parser for checking ``GET /metrics``.

The service renders its metrics with
:func:`repro.serve.telemetry.render_prometheus`; this parser is the
independent check on that text, used by ``tests/test_serve_telemetry.py``
and by CI's live ``/metrics`` scrape (``from tests.prometheus import
parse_prometheus_text``, run from the repository root).  It checks
line syntax plus the invariants a scraper relies on, and raises
:class:`~repro.serve.telemetry.PrometheusParseError` on any violation
(a server must never emit text this parser rejects).
"""

from __future__ import annotations

import math
import re
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.serve.telemetry import PrometheusParseError

__all__ = ["parse_prometheus_text"]

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)(?:\s+(?P<ts>-?\d+))?$"
)
_LABEL_RE = re.compile(
    r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"'
)


def _parse_labels(text: Optional[str]) -> Dict[str, str]:
    if not text:
        return {}
    labels: Dict[str, str] = {}
    pos = 0
    while pos < len(text):
        match = _LABEL_RE.match(text, pos)
        if match is None:
            raise PrometheusParseError(f"malformed labels: {{{text}}}")
        raw = match.group("value")
        labels[match.group("key")] = (
            raw.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
        )
        pos = match.end()
        if pos < len(text):
            if text[pos] != ",":
                raise PrometheusParseError(f"malformed labels: {{{text}}}")
            pos += 1
    return labels


def _base_family(sample_name: str, typed: Mapping[str, str]) -> str:
    """Which declared family a sample line belongs to."""
    for suffix in ("_bucket", "_sum", "_count", "_total"):
        base = sample_name[: -len(suffix)] if sample_name.endswith(suffix) else None
        if base and base in typed:
            expected = {
                "_total": ("counter",),
                "_bucket": ("histogram",),
                "_sum": ("histogram",),
                "_count": ("histogram",),
            }[suffix]
            if typed[base] in expected:
                return base
    if sample_name in typed:
        return sample_name
    raise PrometheusParseError(
        f"sample {sample_name!r} has no preceding # TYPE declaration"
    )


def parse_prometheus_text(text: str) -> Dict[str, Dict[str, Any]]:
    """Strictly parse Prometheus text format; raise on any violation.

    Returns ``{family: {"type", "help", "samples": [(name, labels,
    value), ...]}}``.  Beyond line syntax it checks the invariants a
    scraper relies on: every sample is covered by a ``# TYPE``,
    histogram buckets are cumulative and end at ``+Inf``, the ``+Inf``
    bucket equals ``_count``, and counter values are finite and
    non-negative.
    """
    families: Dict[str, Dict[str, Any]] = {}
    typed: Dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line.split(None, 3)
            if len(parts) < 3 or not _NAME_OK.match(parts[2]):
                raise PrometheusParseError(f"line {lineno}: bad HELP: {line!r}")
            families.setdefault(
                parts[2], {"type": None, "help": None, "samples": []}
            )["help"] = parts[3] if len(parts) > 3 else ""
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in (
                "counter", "gauge", "histogram", "summary", "untyped",
            ):
                raise PrometheusParseError(f"line {lineno}: bad TYPE: {line!r}")
            name = parts[2]
            if not _NAME_OK.match(name):
                raise PrometheusParseError(
                    f"line {lineno}: bad metric name {name!r}"
                )
            if typed.get(name) is not None:
                raise PrometheusParseError(
                    f"line {lineno}: duplicate TYPE for {name!r}"
                )
            typed[name] = parts[3]
            families.setdefault(
                name, {"type": None, "help": None, "samples": []}
            )["type"] = parts[3]
            continue
        if line.startswith("#"):
            continue  # free-form comment
        match = _SAMPLE_RE.match(line.strip())
        if match is None:
            raise PrometheusParseError(f"line {lineno}: bad sample: {line!r}")
        sample_name = match.group("name")
        labels = _parse_labels(match.group("labels"))
        raw_value = match.group("value")
        try:
            value = float(raw_value)
        except ValueError:
            if raw_value not in ("+Inf", "-Inf", "NaN"):
                raise PrometheusParseError(
                    f"line {lineno}: bad value {raw_value!r}"
                ) from None
            value = float(raw_value.replace("Inf", "inf").replace("NaN", "nan"))
        family = _base_family(sample_name, typed)
        if typed[family] == "counter" and (
            value < 0 or math.isnan(value) or math.isinf(value)
        ):
            raise PrometheusParseError(
                f"line {lineno}: counter {sample_name!r} value {raw_value}"
            )
        families[family]["samples"].append((sample_name, labels, value))
    _check_histograms(families)
    return families


def _check_histograms(families: Mapping[str, Dict[str, Any]]) -> None:
    for name, family in families.items():
        if family["type"] != "histogram":
            continue
        series: Dict[Tuple[Tuple[str, str], ...], Dict[str, Any]] = {}
        for sample_name, labels, value in family["samples"]:
            key = tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
            entry = series.setdefault(key, {"buckets": [], "count": None})
            if sample_name == f"{name}_bucket":
                if "le" not in labels:
                    raise PrometheusParseError(
                        f"{name}: bucket sample without le label"
                    )
                entry["buckets"].append((labels["le"], value))
            elif sample_name == f"{name}_count":
                entry["count"] = value
        for key, entry in series.items():
            buckets = entry["buckets"]
            if not buckets or buckets[-1][0] != "+Inf":
                raise PrometheusParseError(
                    f"{name}{dict(key)}: histogram must end with an "
                    "le=\"+Inf\" bucket"
                )
            values = [v for _, v in buckets]
            if values != sorted(values):
                raise PrometheusParseError(
                    f"{name}{dict(key)}: bucket counts must be cumulative"
                )
            if entry["count"] is not None and entry["count"] != values[-1]:
                raise PrometheusParseError(
                    f"{name}{dict(key)}: _count != le=\"+Inf\" bucket"
                )
