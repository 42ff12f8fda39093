"""Monte-Carlo convergence trials (the paper's Python emulator).

One trial builds a d x d SoC, draws a random initial coin allocation of
a fixed pool, runs the configured exchange algorithm, and reports the
time (NoC cycles) and coin packets needed to reach the error threshold —
the measurements behind Figs. 3, 4, 6, 7 and 8.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.config import BlitzCoinConfig
from repro.core.engine import CoinExchangeEngine
from repro.core.metrics import global_error, worst_tile_error
from repro.faults.runtime import maybe_injecting
from repro.noc.behavioral import BehavioralNoc
from repro.noc.topology import MeshTopology
from repro.sim.kernel import Simulator
from repro.sim.rng import rng_for


@dataclass(frozen=True)
class ScenarioSpec:
    """Per-tile targets plus the circulating pool size."""

    max_by_tile: Sequence[int]
    pool: int

    def __post_init__(self) -> None:
        if self.pool < 0:
            raise ValueError(f"pool must be >= 0, got {self.pool}")
        if any(m < 0 for m in self.max_by_tile):
            raise ValueError("negative max values in scenario")

    @property
    def n_tiles(self) -> int:
        return len(self.max_by_tile)


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one convergence trial."""

    converged: bool
    cycles: Optional[int]
    packets: int
    start_error: float
    final_error: float
    worst_final_error: float
    exchanges: int
    #: Fault-injection outcomes; all zero on fault-free runs.
    coins_lost: int = 0
    coins_reconciled: int = 0
    packets_discarded: int = 0
    timeouts: int = 0


def homogeneous_scenario(
    d: int, *, max_per_tile: int = 32, utilization: float = 0.75
) -> ScenarioSpec:
    """All tiles identical (accType = 1), pool at a utilization fraction."""
    n = d * d
    pool = int(round(n * max_per_tile * utilization))
    return ScenarioSpec(max_by_tile=[max_per_tile] * n, pool=pool)


def heterogeneous_scenario(
    d: int,
    acc_types: int,
    *,
    base_max: int = 8,
    utilization: float = 0.75,
    seed: int = 0,
) -> ScenarioSpec:
    """``acc_types`` accelerator classes with spread max values (Fig. 8).

    Type t gets max = base_max * (t + 1); tiles are assigned types in a
    seeded random permutation so type placement is unbiased.
    """
    if acc_types < 1:
        raise ValueError(f"acc_types must be >= 1, got {acc_types}")
    n = d * d
    rng = rng_for(seed, 7)
    types = np.arange(n) % acc_types
    rng.shuffle(types)
    max_by_tile = [base_max * (int(t) + 1) for t in types]
    pool = int(round(sum(max_by_tile) * utilization))
    return ScenarioSpec(max_by_tile=max_by_tile, pool=pool)


def random_initial_allocation(
    scenario: ScenarioSpec,
    rng: np.random.Generator,
    *,
    donor_fraction: float = 0.1,
) -> List[int]:
    """Random initial allocation with chip-scale imbalance.

    The pool is split across a random ``donor_fraction`` subset of tiles
    (at least one), modeling the physically meaningful worst case: at a
    workload phase boundary the coins sit with the tiles that were active
    in the *previous* phase and must transport across the die to the new
    equilibrium.  This produces the O(d) convergence-time scaling (in
    NoC cycles) the paper measures; a fully i.i.d. per-tile
    initialization only creates
    local imbalance, which equalizes in O(1) regardless of SoC size.

    ``donor_fraction=1.0`` recovers the i.i.d. multinomial spread.
    """
    if not (0.0 < donor_fraction <= 1.0):
        raise ValueError(
            f"donor_fraction must be in (0, 1], got {donor_fraction}"
        )
    n = scenario.n_tiles
    if n == 0:
        return []
    k = max(1, int(round(n * donor_fraction)))
    donors = rng.choice(n, size=k, replace=False)
    counts = rng.multinomial(scenario.pool, [1.0 / k] * k)
    has = [0] * n
    for donor, c in zip(donors, counts):
        has[int(donor)] = int(c)
    return has


def run_convergence_trial(
    d: int,
    config: BlitzCoinConfig,
    seed: int,
    *,
    scenario: Optional[ScenarioSpec] = None,
    max_cycles: int = 2_000_000,
    threshold: Optional[float] = None,
    donor_fraction: float = 0.1,
) -> TrialResult:
    """Run one seeded convergence trial on a d x d grid.

    ``max_cycles`` bounds the run in NoC cycles.  ``donor_fraction``
    selects the initial-imbalance regime: the default
    0.1 concentrates the pool on few tiles (transport-limited, the
    response-time regime of Figs. 3/4), while 1.0 spreads it i.i.d.
    (local-smoothing regime, where converged regions idle while
    laggards finish — the regime Fig. 6's dynamic-timing study targets).
    """
    if scenario is None:
        scenario = homogeneous_scenario(d)
    if threshold is not None:
        config = dataclasses.replace(config, convergence_threshold=threshold)
    topo = MeshTopology(d, d)
    sim = Simulator()
    noc = BehavioralNoc(sim, topo)
    rng = rng_for(seed, d)
    initial = random_initial_allocation(
        scenario, rng, donor_fraction=donor_fraction
    )
    # config.fault_plan (if any) scopes a fault injector to this trial;
    # engine construction must happen inside so the plan's tile/coin
    # events get bound to this engine's simulator.
    with maybe_injecting(config.fault_plan):
        engine = CoinExchangeEngine(
            sim,
            noc,
            config,
            scenario.max_by_tile,
            initial,
            rng=rng,
        )
        start_error = global_error(initial, list(scenario.max_by_tile))
        engine.start()
        converged_at = engine.run_until_converged(max_cycles)
        engine.check_conservation()
    has = engine.snapshot_has()
    max_ = engine.snapshot_max()
    return TrialResult(
        converged=converged_at is not None,
        cycles=converged_at,
        packets=engine.coin_packets,
        start_error=start_error,
        final_error=global_error(has, max_),
        worst_final_error=worst_tile_error(has, max_),
        exchanges=engine.exchanges_started,
        coins_lost=engine.coins_lost,
        coins_reconciled=engine.coins_reminted,
        packets_discarded=noc.stats.discarded,
        timeouts=engine.exchanges_timed_out,
    )


def trial_seeds(n_trials: int, *, base_seed: int, stride: int) -> List[int]:
    """The ``base_seed * stride + k`` seed ladder of the figure drivers."""
    return [base_seed * stride + k for k in range(n_trials)]


def run_trials(
    d: int,
    config: BlitzCoinConfig,
    n_trials: int,
    *,
    base_seed: int = 0,
    seed_stride: int = 10_000,
    scenario: Optional[ScenarioSpec] = None,
    max_cycles: int = 2_000_000,
    threshold: Optional[float] = None,
    donor_fraction: float = 0.1,
) -> List[TrialResult]:
    """Run ``n_trials`` independent seeded trials, one after another.

    Parallel trial batches go through :func:`repro.campaign.run_campaign`,
    whose process pool is checked against a serial re-run.
    """
    return [
        run_convergence_trial(
            d,
            config,
            seed,
            scenario=scenario,
            max_cycles=max_cycles,
            threshold=threshold,
            donor_fraction=donor_fraction,
        )
        for seed in trial_seeds(n_trials, base_seed=base_seed, stride=seed_stride)
    ]


def settle_to_residual(
    d: int,
    config: BlitzCoinConfig,
    seed: int,
    *,
    scenario: Optional[ScenarioSpec] = None,
    settle_cycles: int = 400_000,
) -> TrialResult:
    """Run for a fixed horizon and report the residual error (Fig. 7).

    Unlike :func:`run_convergence_trial`, this does not stop at the
    threshold: it lets the system settle and measures the worst-case
    per-tile error that remains, which is the quantity whose histogram
    demonstrates the value of random pairing.
    """
    if scenario is None:
        scenario = homogeneous_scenario(d)
    topo = MeshTopology(d, d)
    sim = Simulator()
    noc = BehavioralNoc(sim, topo)
    rng = rng_for(seed, d, 1)
    initial = random_initial_allocation(scenario, rng)
    with maybe_injecting(config.fault_plan):
        engine = CoinExchangeEngine(
            sim, noc, config, scenario.max_by_tile, initial, rng=rng
        )
        start_error = global_error(initial, list(scenario.max_by_tile))
        engine.start()
        sim.run(until=settle_cycles)
        engine.check_conservation()
    has = engine.snapshot_has()
    max_ = engine.snapshot_max()
    return TrialResult(
        converged=engine.tracker.is_converged,
        cycles=engine.tracker.converged_at,
        packets=engine.coin_packets,
        start_error=start_error,
        final_error=global_error(has, max_),
        worst_final_error=worst_tile_error(has, max_),
        exchanges=engine.exchanges_started,
        coins_lost=engine.coins_lost,
        coins_reconciled=engine.coins_reminted,
        packets_discarded=noc.stats.discarded,
        timeouts=engine.exchanges_timed_out,
    )
