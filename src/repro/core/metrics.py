"""Convergence error metrics (Sections III-B and III-E).

The paper defines, over N tiles:

* global convergence ratio  ``alpha = sum(has) / sum(max)``,
* per-tile error            ``E_i = |has_i - alpha * max_i|``,
* global error              ``E = (1/N) * sum(E_i)``.

:class:`ErrorTracker` maintains ``sum(E_i)`` incrementally so the engine
can test convergence after every coin update in O(1).

The tracker's ``alpha`` uses the *fixed pool size* (coins on tiles plus
coins in flight inside update packets), so the target allocation is
stable between activity changes even while coins are in transit.
"""

from __future__ import annotations

from typing import List, Optional, Sequence


def global_error(has: Sequence[int], max_: Sequence[int]) -> float:
    """The paper's E over explicit coin vectors."""
    if len(has) != len(max_):
        raise ValueError(f"length mismatch: {len(has)} vs {len(max_)}")
    if not has:
        return 0.0
    sum_max = sum(max_)
    if sum_max == 0:
        # No tile wants coins; any coins still held are pure error.
        return sum(abs(h) for h in has) / len(has)
    alpha = sum(has) / sum_max
    return sum(abs(h - alpha * m) for h, m in zip(has, max_)) / len(has)


def worst_tile_error(has: Sequence[int], max_: Sequence[int]) -> float:
    """Maximum per-tile absolute error (the Fig. 7 histogram metric)."""
    if len(has) != len(max_):
        raise ValueError(f"length mismatch: {len(has)} vs {len(max_)}")
    if not has:
        return 0.0
    sum_max = sum(max_)
    if sum_max == 0:
        return max((abs(h) for h in has), default=0.0)
    alpha = sum(has) / sum_max
    return max(abs(h - alpha * m) for h, m in zip(has, max_))


class ErrorTracker:
    """Incrementally maintained global error with convergence stamping."""

    def __init__(
        self,
        has: Sequence[int],
        max_: Sequence[int],
        pool: int,
        threshold: float,
    ) -> None:
        if len(has) != len(max_):
            raise ValueError(f"length mismatch: {len(has)} vs {len(max_)}")
        self._has: List[int] = list(has)
        self._max: List[int] = list(max_)
        self.pool = pool
        self.threshold = threshold
        self.converged_at: Optional[int] = None
        self._recompute()
        self._check(0)

    # ------------------------------------------------------------ internal
    def _recompute(self) -> None:
        sum_max = sum(self._max)
        self._alpha = self.pool / sum_max if sum_max > 0 else 0.0
        self._sum_err = sum(
            abs(h - self._alpha * m) for h, m in zip(self._has, self._max)
        )

    # ------------------------------------------------------------- updates
    def update_has(self, tid: int, new_has: int, now: int) -> None:
        """Apply a coin-count change and stamp convergence if crossed.

        The engine's hot path: the tile's error term and ``_check`` are
        inlined with the same float operations in the same order.
        """
        has = self._has
        target = self._alpha * self._max[tid]
        sum_err = self._sum_err - abs(has[tid] - target)
        has[tid] = new_has
        sum_err += abs(new_has - target)
        self._sum_err = sum_err
        if self.converged_at is None and sum_err / len(has) < self.threshold:
            self.converged_at = now

    def update_max(self, tid: int, new_max: int, now: int) -> None:
        """Apply an activity change; alpha shifts, so recompute fully.

        Convergence stamping restarts: an activity change defines a new
        equilibrium, and the time to reach it (``now`` is in NoC
        cycles) is the paper's response time.
        """
        self._max[tid] = new_max
        self._recompute()
        self.converged_at = None
        self._check(now)

    def _check(self, now: int) -> None:
        if self.converged_at is None and self.error < self.threshold:
            self.converged_at = now

    # ----------------------------------------------------------- read-outs
    @property
    def alpha(self) -> float:
        """Current global convergence ratio (pool-based)."""
        return self._alpha

    @property
    def error(self) -> float:
        """Current global mean error E (coins)."""
        n = len(self._has)
        return self._sum_err / n if n else 0.0

    @property
    def is_converged(self) -> bool:
        """True once E has dropped below the threshold."""
        return self.converged_at is not None

    def target_for(self, tid: int) -> float:
        """The fair (real-valued) coin count for tile ``tid``."""
        return self._alpha * self._max[tid]
