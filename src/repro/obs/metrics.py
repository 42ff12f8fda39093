"""Metrics registry: counters, gauges, and histograms.

Every instrument is keyed by a name plus an optional set of string
labels (``registry.counter("noc.packets", kind="coin_status")``), the
convention Prometheus and Lumos-style simulators share.  All timestamps
are *simulation cycles* — never wall-clock — so recording a metric can
never perturb reproducibility (blitzlint rule D1 applies to this
package like any other).

The registry is a plain data container: it schedules nothing, owns no
simulator reference, and is safe to read at any point during or after a
run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsError",
    "MetricsRegistry",
    "label_key",
]

#: Canonical (sorted) representation of an instrument's labels.
LabelKey = Tuple[Tuple[str, str], ...]

Number = Union[int, float]


class MetricsError(ValueError):
    """Raised for invalid instrument definitions or type clashes."""


def label_key(labels: Mapping[str, object]) -> LabelKey:
    """Canonicalize a label mapping into a sorted, hashable key."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(labels: LabelKey) -> str:
    if not labels:
        return ""
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return "{" + inner + "}"


@dataclass
class Counter:
    """A monotonically increasing count of occurrences."""

    name: str
    labels: LabelKey = ()
    total: int = 0
    first_time: Optional[int] = None
    last_time: Optional[int] = None

    def inc(self, time: int, n: int = 1) -> None:
        """Add ``n`` occurrences at simulation cycle ``time``."""
        if n < 0:
            raise MetricsError(f"counter {self.name!r} cannot decrease")
        self.total += n
        if self.first_time is None:
            self.first_time = time
        self.last_time = time

    @property
    def qualified_name(self) -> str:
        return self.name + _render_labels(self.labels)


@dataclass
class Gauge:
    """A last-value-wins sample with running min/max."""

    name: str
    labels: LabelKey = ()
    value: float = 0.0
    last_time: Optional[int] = None
    min_value: Optional[float] = None
    max_value: Optional[float] = None
    samples: int = 0

    def set(self, time: int, value: Number) -> None:
        """Record the gauge's value at simulation cycle ``time``."""
        v = float(value)
        self.value = v
        self.last_time = time
        self.samples += 1
        self.min_value = v if self.min_value is None else min(self.min_value, v)
        self.max_value = v if self.max_value is None else max(self.max_value, v)

    @property
    def qualified_name(self) -> str:
        return self.name + _render_labels(self.labels)


#: Default value-bucket upper bounds: powers of two spanning 1..64k.
DEFAULT_BOUNDS: Tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512,
                                   1024, 4096, 16384, 65536)


@dataclass
class Histogram:
    """A distribution of observed values, bucketed by value.

    ``bounds`` are inclusive upper edges; an observation lands in the
    first bucket whose bound it does not exceed (one overflow bucket
    past the last bound).
    """

    name: str
    labels: LabelKey = ()
    bounds: Tuple[Number, ...] = DEFAULT_BOUNDS
    counts: List[int] = field(default_factory=list)
    count: int = 0
    total: float = 0.0
    min_value: Optional[float] = None
    max_value: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.bounds or list(self.bounds) != sorted(self.bounds):
            raise MetricsError(
                f"histogram {self.name!r} needs ascending, non-empty bounds"
            )
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)

    def observe(self, time: int, value: Number) -> None:
        """Record one observation of ``value`` at simulation cycle ``time``.

        Non-finite values are rejected loudly: one NaN would silently
        poison ``total``/``mean`` and break the min/max tracking that
        :meth:`percentile` clamps against.
        """
        v = float(value)
        if v != v or v in (float("inf"), float("-inf")):
            raise MetricsError(
                f"histogram {self.name!r} observed non-finite value {value!r}"
            )
        idx = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if v <= bound:
                idx = i
                break
        self.counts[idx] += 1
        self.count += 1
        self.total += v
        self.min_value = v if self.min_value is None else min(self.min_value, v)
        self.max_value = v if self.max_value is None else max(self.max_value, v)

    @property
    def mean(self) -> float:
        """Mean observed value (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> Optional[float]:
        """The smallest recorded-value bound covering fraction ``q``.

        Resolution is the bucket grid: the answer is the first bucket
        upper edge whose cumulative count reaches ``q * count``,
        clamped into ``[min_value, max_value]`` so edge quantiles are
        exact (observations in the overflow bucket report
        ``max_value``).  Returns None when the histogram is empty;
        raises :class:`MetricsError` for ``q`` outside ``[0, 1]``.
        """
        if not 0.0 <= q <= 1.0:
            raise MetricsError(
                f"histogram {self.name!r}: percentile q={q} outside [0, 1]"
            )
        if self.count == 0:
            return None
        assert self.min_value is not None and self.max_value is not None
        if q == 0.0:
            return self.min_value
        rank = q * self.count
        cumulative = 0
        for i, bound in enumerate(self.bounds):
            cumulative += self.counts[i]
            if cumulative >= rank:
                return min(max(float(bound), self.min_value), self.max_value)
        return self.max_value

    def quantile_summary(self) -> Dict[str, Optional[float]]:
        """The RunReport quantile row: count, mean, p50/p90/p99, min/max.

        Well-defined at the edges: an empty histogram reports
        ``count`` 0.0 and None for every statistic (absence, not a
        fake zero); a single-sample histogram reports that sample
        exactly for mean, min, max, and every quantile — the
        min/max clamp in :meth:`percentile` collapses the bucket
        grid's resolution error to zero.
        """
        return {
            "count": float(self.count),
            "mean": self.mean if self.count else None,
            "min": self.min_value,
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
            "max": self.max_value,
        }

    def bucket_rows(self) -> List[Tuple[str, int]]:
        """(upper-edge label, count) pairs, overflow bucket last."""
        rows = [
            (f"<= {bound}", self.counts[i])
            for i, bound in enumerate(self.bounds)
        ]
        rows.append((f"> {self.bounds[-1]}", self.counts[-1]))
        return rows

    @property
    def qualified_name(self) -> str:
        return self.name + _render_labels(self.labels)


Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Named instruments, get-or-create, with type-clash protection."""

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, LabelKey], Instrument] = {}

    # ----------------------------------------------------------- get/create
    def _get(
        self, kind: type, name: str, labels: Mapping[str, object]
    ) -> Instrument:
        key = (name, label_key(labels))
        existing = self._instruments.get(key)
        if existing is not None:
            if not isinstance(existing, kind):
                raise MetricsError(
                    f"instrument {name!r} already registered as "
                    f"{type(existing).__name__}, not {kind.__name__}"
                )
            return existing
        instrument: Instrument = kind(name, key[1])
        self._instruments[key] = instrument
        return instrument

    def counter(self, name: str, **labels: object) -> Counter:
        """Get (creating if needed) the counter ``name{labels}``."""
        instrument = self._get(Counter, name, labels)
        assert isinstance(instrument, Counter)
        return instrument

    def gauge(self, name: str, **labels: object) -> Gauge:
        """Get (creating if needed) the gauge ``name{labels}``."""
        instrument = self._get(Gauge, name, labels)
        assert isinstance(instrument, Gauge)
        return instrument

    def histogram(
        self,
        name: str,
        *,
        bounds: Optional[Sequence[Number]] = None,
        **labels: object,
    ) -> Histogram:
        """Get (creating if needed) the histogram ``name{labels}``."""
        key = (name, label_key(labels))
        existing = self._instruments.get(key)
        if existing is None and bounds is not None:
            histogram = Histogram(name, key[1], bounds=tuple(bounds))
            self._instruments[key] = histogram
            return histogram
        instrument = self._get(Histogram, name, labels)
        assert isinstance(instrument, Histogram)
        return instrument

    # ------------------------------------------------------------ shortcuts
    def inc(self, name: str, time: int, n: int = 1, **labels: object) -> None:
        """Increment counter ``name{labels}`` by ``n`` at cycle ``time``."""
        self.counter(name, **labels).inc(time, n)

    def set_gauge(
        self, name: str, time: int, value: Number, **labels: object
    ) -> None:
        """Set gauge ``name{labels}`` at cycle ``time``."""
        self.gauge(name, **labels).set(time, value)

    def observe(
        self, name: str, time: int, value: Number, **labels: object
    ) -> None:
        """Observe ``value`` into histogram ``name{labels}``."""
        self.histogram(name, **labels).observe(time, value)

    # -------------------------------------------------------------- readout
    def instruments(self) -> List[Instrument]:
        """All instruments sorted by (name, labels)."""
        return [
            self._instruments[key] for key in sorted(self._instruments)
        ]

    def get(
        self, name: str, **labels: object
    ) -> Optional[Instrument]:
        """Instrument ``name{labels}`` or None if never touched."""
        return self._instruments.get((name, label_key(labels)))

    def value(self, name: str, **labels: object) -> Number:
        """Counter total or gauge value (0 when absent)."""
        instrument = self.get(name, **labels)
        if instrument is None:
            return 0
        if isinstance(instrument, Counter):
            return instrument.total
        if isinstance(instrument, Gauge):
            return instrument.value
        return instrument.count

    def __len__(self) -> int:
        return len(self._instruments)

    def as_rows(self) -> List[Dict[str, object]]:
        """Flatten every instrument into a dict-row (for CSV/JSONL)."""
        rows: List[Dict[str, object]] = []
        for instrument in self.instruments():
            row: Dict[str, object] = {
                "name": instrument.name,
                "labels": dict(instrument.labels),
                "kind": type(instrument).__name__.lower(),
            }
            if isinstance(instrument, Counter):
                row["total"] = instrument.total
            elif isinstance(instrument, Gauge):
                row.update(
                    value=instrument.value,
                    min=instrument.min_value,
                    max=instrument.max_value,
                )
            else:
                row.update(
                    count=instrument.count,
                    mean=instrument.mean,
                    min=instrument.min_value,
                    max=instrument.max_value,
                )
            rows.append(row)
        return rows
