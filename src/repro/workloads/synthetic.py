"""Synthetic workload generators for the scalability studies.

The paper's scaling arguments (Figs. 1 and 21) rest on the statistics of
*activity changes*: with per-accelerator workload phases of mean
duration T_w, an N-accelerator SoC sees a change every T_w / N on
average.  :func:`random_phase_trace` synthesizes exactly that process;
:func:`random_layered_dag` generates dependent workloads of arbitrary
size for stress tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.rng import rng_for
from repro.workloads.dag import Task, TaskGraph


@dataclass(frozen=True)
class PhaseTrace:
    """A per-tile activity schedule: (time_cycles, tile, active) events."""

    events: Tuple[Tuple[int, int, bool], ...]
    horizon_cycles: int
    n_tiles: int

    def mean_interval_cycles(self) -> float:
        """Mean interval between consecutive SoC-level activity changes.

        This is the dashed T_w/N curve of Fig. 1.
        """
        if len(self.events) < 2:
            return float(self.horizon_cycles)
        times = sorted(t for t, _, _ in self.events)
        gaps = np.diff(times)
        return float(np.mean(gaps)) if len(gaps) else float(self.horizon_cycles)


def random_phase_trace(
    n_tiles: int,
    t_w_cycles: float,
    horizon_cycles: int,
    seed: Optional[int] = None,
    *,
    duty: float = 0.5,
    rng: Optional[np.random.Generator] = None,
) -> PhaseTrace:
    """Exponential on/off phases of mean T_w per tile.

    Each tile alternates active/idle; active and idle phase durations
    are exponential with means ``duty * t_w`` and ``(1-duty) * t_w`` so
    the overall per-tile change rate is ``2 / t_w`` transitions per
    phase pair, i.e. one phase boundary every ``t_w / 2``... more simply:
    mean time between changes of one tile is t_w/2 on average with the
    default duty, giving the SoC-level T_w/N statistic of Fig. 1.

    Randomness is explicit (rule D1): pass either an integer ``seed``
    (a private stream is derived via :func:`repro.sim.rng.rng_for`) or
    an already-seeded ``rng`` handle — never both.
    """
    if n_tiles < 1:
        raise ValueError(f"n_tiles must be >= 1, got {n_tiles}")
    if t_w_cycles <= 0 or horizon_cycles <= 0:
        raise ValueError("t_w and horizon must be positive")
    if not (0.0 < duty < 1.0):
        raise ValueError(f"duty must be in (0, 1), got {duty}")
    if (seed is None) == (rng is None):
        raise ValueError("pass exactly one of `seed` or `rng`")
    if rng is None:
        assert seed is not None
        rng = rng_for(seed, n_tiles)
    events: List[Tuple[int, int, bool]] = []
    for tile in range(n_tiles):
        t = float(rng.exponential(t_w_cycles))  # random initial offset
        active = bool(rng.integers(0, 2))
        while t < horizon_cycles:
            events.append((int(t), tile, active))
            mean = t_w_cycles * (duty if active else (1.0 - duty))
            t += float(rng.exponential(mean)) + 1.0
            active = not active
    events.sort()
    return PhaseTrace(
        events=tuple(events),
        horizon_cycles=horizon_cycles,
        n_tiles=n_tiles,
    )


def random_layered_dag(
    n_tasks: int,
    acc_classes: Sequence[str],
    seed: int,
    *,
    n_layers: int = 4,
    fan_in: int = 2,
    work_range: Tuple[int, int] = (100_000, 500_000),
) -> TaskGraph:
    """A random layered DAG: tasks in layer k depend on layer k-1 tasks."""
    if n_tasks < 1:
        raise ValueError(f"n_tasks must be >= 1, got {n_tasks}")
    if not acc_classes:
        raise ValueError("need at least one accelerator class")
    if n_layers < 1:
        raise ValueError(f"n_layers must be >= 1, got {n_layers}")
    lo, hi = work_range
    if not (0 < lo <= hi):
        raise ValueError(f"invalid work range {work_range}")
    rng = rng_for(seed, n_tasks, n_layers)
    layers: List[List[str]] = [[] for _ in range(n_layers)]
    tasks: List[Task] = []
    for k in range(n_tasks):
        layer = min(k * n_layers // n_tasks, n_layers - 1)
        name = f"t{k}"
        deps: Tuple[str, ...] = ()
        if layer > 0 and layers[layer - 1]:
            prev = layers[layer - 1]
            take = min(len(prev), int(rng.integers(1, fan_in + 1)))
            picked = rng.choice(len(prev), size=take, replace=False)
            deps = tuple(sorted(prev[int(i)] for i in picked))
        tasks.append(
            Task(
                name=name,
                acc_class=str(rng.choice(list(acc_classes))),
                work_cycles=int(rng.integers(lo, hi + 1)),
                deps=deps,
            )
        )
        layers[layer].append(name)
    return TaskGraph(tasks)
