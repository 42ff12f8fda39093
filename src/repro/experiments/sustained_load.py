"""Sustained-load study: does the PM keep up with activity churn?

Figs. 1 and 21 argue analytically that a scheme supports an SoC only
while its response time satisfies ``T(N) < T_w / N``.  This experiment
validates the criterion *empirically* for BlitzCoin: tiles toggle
active/idle as a random phase process with mean phase duration T_w, and
we measure the fraction of time the coin distribution is at its current
equilibrium.  Long phases => the system is converged almost always;
short phases => it is perpetually stale, exactly the breakdown the
analytical model predicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.config import BlitzCoinConfig, preferred_embodiment
from repro.core.engine import CoinExchangeEngine
from repro.noc.behavioral import BehavioralNoc
from repro.noc.topology import MeshTopology
from repro.sim import cycles_to_us, us_to_cycles
from repro.sim.kernel import Simulator
from repro.sim.rng import rng_for
from repro.workloads.synthetic import random_phase_trace

ACTIVE_MAX = 32


@dataclass(frozen=True)
class SustainedLoadResult:
    """Outcome of one churn run."""

    n_tiles: int
    t_w_us: float
    horizon_us: float
    n_changes: int
    converged_fraction: float  # time share spent at equilibrium
    mean_interval_us: float  # measured SoC-level change interval

    @property
    def keeps_up(self) -> bool:
        """Converged most of the time => the PM keeps up."""
        return self.converged_fraction > 0.5


class _ConvergenceClock:
    """Accumulates the time the tracker spends converged."""

    def __init__(self, engine: CoinExchangeEngine) -> None:
        self.engine = engine
        self.total = 0

    def on_change(self, now: int) -> None:
        """Called just *before* an activity change re-targets the system."""
        tracker = self.engine.tracker
        if tracker.is_converged and tracker.converged_at is not None:
            self.total += max(0, now - tracker.converged_at)

    def finish(self, now: int) -> None:
        self.on_change(now)


def run_sustained(
    d: int,
    t_w_us: float,
    seed: Optional[int] = None,
    *,
    horizon_us: Optional[float] = None,
    config: Optional[BlitzCoinConfig] = None,
    duty: float = 0.5,
    rng: Optional[np.random.Generator] = None,
) -> SustainedLoadResult:
    """One churn run on a d x d SoC with mean phase duration ``t_w_us``.

    All randomness (phase trace, initial activity, engine phase
    stagger) derives from one explicit source: pass either an integer
    ``seed`` or an already-seeded ``repro.sim.rng`` generator handle —
    never both (rule D1; module-level RNG state is banned).
    """
    if (seed is None) == (rng is None):
        raise ValueError("pass exactly one of `seed` or `rng`")
    if horizon_us is None:
        horizon_us = max(10.0 * t_w_us, 500.0)
    config = config or preferred_embodiment()
    topo = MeshTopology(d, d)
    n = topo.n_tiles
    sim = Simulator()
    noc = BehavioralNoc(sim, topo)
    horizon_cycles = us_to_cycles(horizon_us)
    if rng is None:
        assert seed is not None
        rng = rng_for(seed, d, 3)
        trace = random_phase_trace(
            n, us_to_cycles(t_w_us), horizon_cycles, seed, duty=duty
        )
    else:
        # Single handle: the trace consumes from the same stream, ahead
        # of the activity/stagger draws below — deterministic either way.
        trace = random_phase_trace(
            n, us_to_cycles(t_w_us), horizon_cycles, duty=duty, rng=rng
        )
    # Start with roughly half the tiles active and a matched pool.
    initially_active = [bool(rng.integers(0, 2)) for _ in range(n)]
    max_vec = [ACTIVE_MAX if a else 0 for a in initially_active]
    pool = int(0.75 * ACTIVE_MAX * n * duty)
    initial = [pool // n] * n
    initial[0] += pool - sum(initial)
    engine = CoinExchangeEngine(
        sim, noc, config, max_vec, initial, rng=rng
    )
    clock = _ConvergenceClock(engine)

    def make_change(tile: int, active: bool):
        def apply() -> None:
            clock.on_change(sim.now)
            engine.set_max(tile, ACTIVE_MAX if active else 0)

        return apply

    for when, tile, active in trace.events:
        sim.schedule_at(max(1, when), make_change(tile, active))
    engine.start()
    sim.run(until=horizon_cycles)
    clock.finish(sim.now)
    engine.check_conservation()
    return SustainedLoadResult(
        n_tiles=n,
        t_w_us=t_w_us,
        horizon_us=horizon_us,
        n_changes=len(trace.events),
        converged_fraction=min(1.0, clock.total / horizon_cycles),
        mean_interval_us=cycles_to_us(trace.mean_interval_cycles()),
    )


def format_rows(results: Sequence[SustainedLoadResult]) -> List[str]:
    rows = []
    for r in results:
        rows.append(
            f"N={r.n_tiles:4d}  T_w={r.t_w_us:8.1f} us  "
            f"changes={r.n_changes:5d}  "
            f"SoC-level interval={r.mean_interval_us:7.2f} us  "
            f"converged {r.converged_fraction * 100:5.1f}% of time  "
            f"{'keeps up' if r.keeps_up else 'FALLS BEHIND'}"
        )
    return rows
