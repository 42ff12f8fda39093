"""Order statistics the benchmark reports.

Timings are summarised as a median plus the nearest-rank tail
percentiles that still have at least ten samples beyond them; a higher
one would be decided by a handful of samples and is not reported.
Run-to-run spread uses the same quartiles as
``statistics.quantiles(values, n=4)``.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, List, Sequence, Tuple

#: Samples that must lie beyond a percentile before it is reported.
BEYOND = 10

#: Tail percentiles the benchmark considers.
TAIL_PERCENTILES = (90.0, 99.0, 99.9)


def percentile(samples: Iterable[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``p``
    per cent of the samples at or below it."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    return ordered[_rank(len(ordered), p) - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples rank above the nearest-rank ``p``-th
    percentile."""
    return n - _rank(n, p)


def _rank(n: int, p: float) -> int:
    """1-based nearest rank; rounding first keeps 99.9% of 10000 at 9990."""
    return max(math.ceil(round(p * n / 100.0, 9)), 1)


def supported(n: int, p: float, beyond: int = BEYOND) -> bool:
    """True when ``n`` samples leave at least ``beyond`` above the
    ``p``-th percentile."""
    return n > 0 and samples_beyond(n, p) >= beyond


def supported_tails(n: int) -> List[float]:
    """The tail percentiles ``n`` samples support, lowest first."""
    return [p for p in TAIL_PERCENTILES if supported(n, p)]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) exactly as ``statistics.quantiles(n=4)``."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def median_of_k(samples: List[float]) -> float:
    """The value reported for a metric sampled k times in one run."""
    if not samples:
        raise ValueError("median of no samples")
    return statistics.median(samples)
