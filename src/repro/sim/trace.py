"""Time-series trace recording.

Traces are (time, value) step functions: a sample recorded at time ``t``
holds until the next sample.  This matches how the paper's post-processing
reconstructs per-tile power from LDO-setting changes (Section V-A).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np


@dataclass
class StateTrace:
    """A single step-function signal."""

    name: str
    times: List[int] = field(default_factory=list)
    values: List[float] = field(default_factory=list)

    def record(self, time: int, value: float) -> None:
        """Append a sample at ``time`` (cycles); same-time re-records
        overwrite the last value."""
        if self.times and time < self.times[-1]:
            raise ValueError(
                f"trace {self.name!r}: time went backwards "
                f"({time} < {self.times[-1]})"
            )
        if self.times and time == self.times[-1]:
            self.values[-1] = value
            return
        # Skip redundant samples so long steady states stay O(1) in memory.
        if self.values and self.values[-1] == value:
            return
        self.times.append(time)
        self.values.append(value)

    def value_at(self, time: int) -> float:
        """Value of the step function at ``time`` in cycles (0.0 before
        the first sample)."""
        idx = bisect_right(self.times, time) - 1
        if idx < 0:
            return 0.0
        return self.values[idx]

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[Tuple[int, float]]:
        return iter(zip(self.times, self.values))

    def integral(self, t0: int, t1: int) -> float:
        """Integrate the step function over ``[t0, t1)`` (value x cycles).

        The window is half-open: the value prevailing at ``t0`` is
        charged from ``t0`` (inclusive), and a sample recorded exactly
        at ``t1`` contributes nothing — it only takes effect *from*
        ``t1``, which is outside the window.  Consequently adjacent
        windows tile exactly: ``integral(a, b) + integral(b, c) ==
        integral(a, c)`` for any ``a <= b <= c``, with no sample
        double-counted or dropped at the seam.  Time before the first
        sample integrates as 0.0, and ``t1 <= t0`` yields 0.0.
        """
        if t1 <= t0:
            return 0.0
        total = 0.0
        current = t0
        idx = bisect_right(self.times, t0) - 1
        while current < t1:
            nxt = self.times[idx + 1] if idx + 1 < len(self.times) else t1
            seg_end = min(nxt, t1)
            value = self.values[idx] if idx >= 0 else 0.0
            total += value * (seg_end - current)
            current = seg_end
            idx += 1
        return total

    def mean(self, t0: int, t1: int) -> float:
        """Time-average of the signal over ``[t0, t1)`` cycles."""
        if t1 <= t0:
            return 0.0
        return self.integral(t0, t1) / (t1 - t0)

    def max_value(self) -> float:
        """Largest recorded sample (0.0 for an empty trace)."""
        return max(self.values) if self.values else 0.0

    def resample(self, times: np.ndarray) -> np.ndarray:
        """Evaluate the step function at each time (cycles) in ``times``."""
        return np.array([self.value_at(int(t)) for t in times], dtype=float)


class TraceRecorder:
    """A named collection of :class:`StateTrace` signals."""

    def __init__(self) -> None:
        self._traces: Dict[str, StateTrace] = {}

    def trace(self, name: str) -> StateTrace:
        """Get (creating if needed) the trace called ``name``."""
        if name not in self._traces:
            self._traces[name] = StateTrace(name)
        return self._traces[name]

    def record(self, name: str, time: int, value: float) -> None:
        """Record one sample at ``time`` (cycles) into the trace ``name``."""
        self.trace(name).record(time, value)

    def names(self) -> List[str]:
        """Sorted list of trace names."""
        return sorted(self._traces)

    def __contains__(self, name: str) -> bool:
        return name in self._traces

    def __getitem__(self, name: str) -> StateTrace:
        return self._traces[name]

    def get(self, name: str) -> Optional[StateTrace]:
        """Trace called ``name`` or None when it was never recorded."""
        return self._traces.get(name)
