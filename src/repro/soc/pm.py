"""Power-manager adapters binding the PM schemes to a live SoC.

All adapters share one small protocol:

* ``start()`` — begin managing (called once before the workload runs),
* ``on_tile_start(tid)`` / ``on_tile_end(tid)`` — activity edges from
  the workload executor,
* ``response_times`` — measured activity-change-to-new-equilibrium
  latencies in NoC cycles (the paper's response-time metric).
"""

from __future__ import annotations

import dataclasses
import enum
import math
from typing import Dict, List, Optional

from repro.baselines.centralized import (
    CentralizedScheme,
    ControllerTiming,
    ProportionalPolicy,
    RoundRobinPolicy,
)
from repro.baselines.tokensmart import TokenSmartConfig
from repro.core.config import BlitzCoinConfig
from repro.core.engine import CoinExchangeEngine
from repro.core.metrics import ErrorTracker
from repro.dvfs.lut import CoinLut
from repro.obs import runtime as _obs
from repro.power.allocation import AllocationStrategy, allocate
from repro.power.budget import MAX_COINS_PER_TILE, build_pooled_budget
from repro.soc.soc import Soc


class PMKind(enum.Enum):
    """The power-management schemes evaluated in the paper."""

    BLITZCOIN = "BC"
    BLITZCOIN_CENTRAL = "BC-C"
    ROUND_ROBIN = "C-RR"
    TOKENSMART = "TS"
    STATIC = "static"


def _activity_edge(scheme: str, tid: int, edge: str, now: int) -> None:
    """Record a tile activity edge into the observability sink."""
    if _obs.sink is not None:
        _obs.sink.inc("pm.activity_edges", now, edge=edge)
        _obs.sink.event(
            f"tile_{edge}",
            now,
            cat="pm",
            track=tid,
            args={"scheme": scheme},
        )


def _record_response(scheme: str, now: int, response_cycles: int) -> None:
    """Record one activity-change-to-equilibrium response time."""
    if _obs.sink is not None:
        _obs.sink.observe(
            "pm.response_cycles", now, response_cycles, scheme=scheme
        )


def _check_budget(budget_mw: float) -> None:
    """Reject a budget that is not a positive, finite number of mW."""
    if not (math.isfinite(budget_mw) and budget_mw > 0):
        raise ValueError(
            f"budget must be a positive, finite number of mW, got {budget_mw}"
        )


def _idle_floor_mw(soc: Soc, tiles) -> float:
    """Combined idle power of the managed tiles.

    Idle tiles are not funded by coins, so the pool is sized on the
    budget net of this floor; total power then stays within the budget
    in steady state (the P_avg/P_budget = 97% regime of Fig. 19).
    """
    return sum(soc.curves[t].p_idle_mw for t in tiles)


def _effective_budget_mw(soc: Soc, tiles, budget_mw: float) -> float:
    """The budget net of the tiles' idle floor (mW), which must be > 0."""
    _check_budget(budget_mw)
    effective = budget_mw - _idle_floor_mw(soc, tiles)
    if effective <= 0:
        raise ValueError(
            f"budget {budget_mw} mW does not cover the idle floor"
        )
    return effective


def _default_bc_config() -> BlitzCoinConfig:
    """The hardware embodiment's configuration for SoC runs."""
    return BlitzCoinConfig(
        refresh_count=32,
        min_interval=8,
        max_interval=512,
        convergence_threshold=0.5,
    )


class BlitzCoinPM:
    """Decentralized coin exchange driving per-tile UVFR actuators."""

    def __init__(
        self,
        soc: Soc,
        budget_mw: float,
        *,
        strategy: AllocationStrategy = AllocationStrategy.RELATIVE_PROPORTIONAL,
        config: Optional[BlitzCoinConfig] = None,
        coin_bits: int = 6,
    ) -> None:
        if not (1 <= coin_bits <= 12):
            raise ValueError(f"coin_bits must be in [1, 12], got {coin_bits}")
        self.soc = soc
        self.budget_mw = budget_mw
        self.coin_bits = coin_bits
        max_coins = 2**coin_bits - 1
        self.tiles = soc.config.managed_accelerators()
        if not self.tiles:
            raise ValueError("SoC has no managed accelerator tiles")
        effective = _effective_budget_mw(soc, self.tiles, budget_mw)
        self.coin_budget = build_pooled_budget(
            strategy,
            soc.p_max_by_tile(self.tiles),
            effective,
            max_coins=max_coins,
        )
        config = config or _default_bc_config()
        if config.thermal_caps is None:
            # The counter width caps any one tile's holdings (6 bits =
            # 63 coins in the paper's hardware).
            config = dataclasses.replace(
                config,
                thermal_caps={t: max_coins for t in self.tiles},
            )
        self.config = config
        self.luts: Dict[int, CoinLut] = {
            t: CoinLut(
                soc.curves[t],
                self.coin_budget.coin_value_mw,
                n_entries=max_coins + 1,
            )
            for t in self.tiles
        }
        n = soc.topology.n_tiles
        initial = [0] * n
        base, rem = divmod(self.coin_budget.pool, len(self.tiles))
        for k, t in enumerate(self.tiles):
            initial[t] = base + (1 if k < rem else 0)
        max_vec = [0] * n  # everything idle at reset
        self.engine = CoinExchangeEngine(
            soc.sim,
            soc.noc,
            config,
            max_vec,
            initial,
            managed_tiles=self.tiles,
            coin_listener=self._on_coins,
        )
        self.response_times: List[int] = []
        self.response_log: List[tuple] = []  # (change_time, response)
        self._last_change: Optional[int] = None
        self._awaiting = False

    def start(self) -> None:
        """Begin the decentralized exchange processes."""
        self.engine.start()

    # ---------------------------------------------------------------- edges
    def on_tile_start(self, tid: int) -> None:
        _activity_edge("BC", tid, "start", self.soc.sim.now)
        self.engine.set_max(tid, self.coin_budget.max_by_tile[tid])
        self._mark_change()
        self._apply_frequency(tid)

    def on_tile_end(self, tid: int) -> None:
        _activity_edge("BC", tid, "end", self.soc.sim.now)
        self.engine.set_max(tid, 0)
        self._mark_change()
        self.soc.set_frequency_target(tid, 0.0)

    def _mark_change(self) -> None:
        self._last_change = self.soc.sim.now
        self._awaiting = True
        self._check_response()

    # ----------------------------------------------------------------- coins
    def _on_coins(self, tid: int, has: int) -> None:
        self._apply_frequency(tid)
        self._check_response()

    def _apply_frequency(self, tid: int) -> None:
        if self.soc.active.get(tid, False):
            coins = self.engine.coins(tid).has
            self.soc.set_frequency_target(
                tid, self.luts[tid].frequency_for(coins)
            )

    def _check_response(self) -> None:
        tracker = self.engine.tracker
        if (
            self._awaiting
            and tracker.is_converged
            and self._last_change is not None
            and tracker.converged_at is not None
        ):
            response = max(0, tracker.converged_at - self._last_change)
            self.response_times.append(response)
            self.response_log.append((self._last_change, response))
            self._awaiting = False
            _record_response("BC", self.soc.sim.now, response)


class CentralizedPM:
    """C-RR or BC-C: a centralized OCC with per-tile oscillators."""

    def __init__(
        self,
        soc: Soc,
        budget_mw: float,
        *,
        policy: str,
    ) -> None:
        self.soc = soc
        self.budget_mw = budget_mw
        self.tiles = soc.config.managed_accelerators()
        if not self.tiles:
            raise ValueError("SoC has no managed accelerator tiles")
        effective = _effective_budget_mw(soc, self.tiles, budget_mw)
        if policy == "crr":
            # The non-granted C-RR state is the true minimum (V, F) point:
            # minimum voltage with the clock wound down to the idle
            # trickle, i.e. essentially no forward progress.
            p_min = {t: soc.curves[t].p_idle_mw for t in self.tiles}
            policy_obj = RoundRobinPolicy(p_min)
        elif policy == "bcc":
            policy_obj = ProportionalPolicy()
        else:
            raise ValueError(f"unknown centralized policy {policy!r}")
        self.scheme_label = "C-RR" if policy == "crr" else "BC-C"
        # Per-tile loop costs calibrated to the paper's fitted scaling
        # constants (Section VI-D): tau_BC-C = 0.66 us/tile and
        # tau_C-RR = 0.96 us/tile at the 800 MHz NoC clock.  C-RR's
        # software daemon costs more per tile than BC-C's firmware.
        if policy == "crr":
            timing = ControllerTiming(
                poll_overhead=400, set_overhead=300, compute_per_tile=40
            )
        else:
            timing = ControllerTiming(
                poll_overhead=300, set_overhead=200, compute_per_tile=16
            )
        self.scheme = CentralizedScheme(
            soc.sim,
            soc.noc,
            soc.config.cpu_tile(),
            self.tiles,
            policy_obj,
            budget_mw,
            capability=self._capability,
            apply_target=self._apply_target,
            timing=timing,
        )
        self.scheme.budget_mw = effective

    def start(self) -> None:
        """Begin the periodic control loop."""
        self.scheme.start()

    def _capability(self, tid: int) -> float:
        if self.soc.active.get(tid, False):
            return self.soc.curves[tid].p_max_mw
        return 0.0

    def _apply_target(self, tid: int, p_mw: float) -> None:
        if self.soc.active.get(tid, False) and p_mw > 0:
            f = self.soc.curves[tid].f_for_power(p_mw)
        else:
            f = 0.0
        self.soc.set_frequency_target(tid, f)

    def on_tile_start(self, tid: int) -> None:
        # The tile waits for the controller's next update before ramping.
        _activity_edge(self.scheme_label, tid, "start", self.soc.sim.now)
        self.scheme.on_activity_change(tid)

    def on_tile_end(self, tid: int) -> None:
        _activity_edge(self.scheme_label, tid, "end", self.soc.sim.now)
        self.soc.set_frequency_target(tid, 0.0)
        self.scheme.on_activity_change(tid)

    @property
    def response_times(self) -> List[int]:
        return self.scheme.response_times

    @property
    def response_log(self) -> List[tuple]:
        return self.scheme.response_log


class StaticPM:
    """Frozen allocation (the silicon comparison baseline of Fig. 19)."""

    def __init__(
        self,
        soc: Soc,
        budget_mw: float,
        *,
        strategy: AllocationStrategy = AllocationStrategy.RELATIVE_PROPORTIONAL,
        tiles: Optional[List[int]] = None,
    ) -> None:
        self.soc = soc
        self.budget_mw = budget_mw
        # A static allocation is configured once, by a programmer who
        # knows which tiles the application uses — so it may be scoped
        # to that subset (the silicon baseline of Fig. 19 statically
        # splits the budget over the accelerators of the workload).
        self.tiles = (
            list(tiles)
            if tiles is not None
            else soc.config.managed_accelerators()
        )
        effective = _effective_budget_mw(soc, self.tiles, budget_mw)
        self.targets = allocate(
            strategy, soc.p_max_by_tile(self.tiles), effective
        )
        self.response_times: List[int] = []

    def start(self) -> None:
        """Nothing to do until tiles activate."""

    def on_tile_start(self, tid: int) -> None:
        _activity_edge("static", tid, "start", self.soc.sim.now)
        f = self.soc.curves[tid].f_for_power(self.targets.get(tid, 0.0))
        self.soc.set_frequency_target(tid, f)

    def on_tile_end(self, tid: int) -> None:
        _activity_edge("static", tid, "end", self.soc.sim.now)
        self.soc.set_frequency_target(tid, 0.0)


class TokenSmartPM:
    """TokenSmart on the SoC: a sequential ring pass over managed tiles.

    The pool packet perpetually walks the ring of managed tiles; each
    visit applies the greedy/fair policy and refreshes the tile's
    frequency from its token holding, using the same pooled-budget coin
    semantics as BlitzCoin so throughput comparisons are apples-to-apples.
    """

    def __init__(
        self,
        soc: Soc,
        budget_mw: float,
        *,
        strategy: AllocationStrategy = AllocationStrategy.RELATIVE_PROPORTIONAL,
        ts_config: Optional[TokenSmartConfig] = None,
    ) -> None:
        self.soc = soc
        self.budget_mw = budget_mw
        self.tiles = soc.config.managed_accelerators()
        if not self.tiles:
            raise ValueError("SoC has no managed accelerator tiles")
        self.ts_config = ts_config or TokenSmartConfig()
        effective = _effective_budget_mw(soc, self.tiles, budget_mw)
        self.coin_budget = build_pooled_budget(
            strategy, soc.p_max_by_tile(self.tiles), effective
        )
        self.luts: Dict[int, CoinLut] = {
            t: CoinLut(soc.curves[t], self.coin_budget.coin_value_mw)
            for t in self.tiles
        }
        # Ring over managed tiles in serpentine grid order.
        grid_ring = soc.topology.ring_order()
        self.ring = [t for t in grid_ring if t in set(self.tiles)]
        self.has: Dict[int, int] = {t: 0 for t in self.tiles}
        base, rem = divmod(self.coin_budget.pool, len(self.tiles))
        for k, t in enumerate(self.tiles):
            self.has[t] = base + (1 if k < rem else 0)
        self.max: Dict[int, int] = {t: 0 for t in self.tiles}
        self.pool_tokens = 0
        self.mode = "greedy"
        self._starved_passes: Dict[int, int] = {}
        self._fair_passes_left = 0
        self._position = 0
        self.response_times: List[int] = []
        self.response_log: List[tuple] = []  # (change_time, response)
        self._last_change: Optional[int] = None
        self._last_move: int = 0
        self._awaiting = False
        self._started = False
        n = soc.topology.n_tiles
        self._tracker = ErrorTracker(
            [self.has.get(t, 0) for t in range(n)],
            [0] * n,
            self.coin_budget.pool,
            0.5,
        )

    def start(self) -> None:
        if self._started:
            raise RuntimeError("TokenSmartPM already started")
        self._started = True
        self._schedule_visit()

    def _schedule_visit(self) -> None:
        cfg = self.ts_config
        here = self.ring[self._position]
        nxt_pos = (self._position + 1) % len(self.ring)
        hops = max(
            1, self.soc.topology.hop_distance(here, self.ring[nxt_pos])
        )
        delay = cfg.process_cycles + hops * cfg.hop_cycles
        self.soc.sim.schedule(delay, self._visit)

    def _visit(self) -> None:
        self._position = (self._position + 1) % len(self.ring)
        tid = self.ring[self._position]
        target = self._target(tid)
        if self.max[tid] == 0:
            self.pool_tokens += self.has[tid]
            self._set_has(tid, 0)
        else:
            deficit = target - self.has[tid]
            if deficit > 0:
                take = min(deficit, self.pool_tokens)
                self._set_has(tid, self.has[tid] + take)
                self.pool_tokens -= take
                if self.has[tid] < target:
                    self._starved_passes[tid] = (
                        self._starved_passes.get(tid, 0) + 1
                    )
                else:
                    self._starved_passes.pop(tid, None)
            else:
                self._set_has(tid, target)
                self.pool_tokens -= deficit
                self._starved_passes.pop(tid, None)
        self._apply_frequency(tid)
        if self._position == len(self.ring) - 1:
            self._end_of_pass()
            self._check_response()
        self._schedule_visit()

    def _end_of_pass(self) -> None:
        cfg = self.ts_config
        if self.mode == "greedy":
            if any(
                v >= cfg.starvation_passes
                for v in self._starved_passes.values()
            ):
                self.mode = "fair"
                self._fair_passes_left = cfg.fair_passes
        else:
            self._fair_passes_left -= 1
            if self._fair_passes_left <= 0:
                self.mode = "greedy"
                self._starved_passes.clear()

    def _target(self, tid: int) -> int:
        if self.max[tid] == 0:
            return 0
        if self.mode == "greedy":
            # Greedy mode: the tile grabs enough tokens to run at F_max
            # (clamped to its counter range), the hogging behaviour that
            # triggers TS's starvation/fair oscillation.
            want = int(round(
                self.soc.curves[tid].p_max_mw / self.coin_budget.coin_value_mw
            ))
            return min(MAX_COINS_PER_TILE, max(1, want))
        active = [t for t in self.tiles if self.max[t] > 0]
        return self.coin_budget.pool // max(1, len(active))

    def _set_has(self, tid: int, value: int) -> None:
        if value != self.has[tid]:
            self._last_move = self.soc.sim.now
        self.has[tid] = value
        self._tracker.update_has(tid, value, self.soc.sim.now)

    def _apply_frequency(self, tid: int) -> None:
        if self.soc.active.get(tid, False):
            self.soc.set_frequency_target(
                tid, self.luts[tid].frequency_for(self.has[tid])
            )
        else:
            self.soc.set_frequency_target(tid, 0.0)

    def on_tile_start(self, tid: int) -> None:
        _activity_edge("TS", tid, "start", self.soc.sim.now)
        self.max[tid] = self.coin_budget.max_by_tile[tid]
        self._tracker.update_max(tid, self.max[tid], self.soc.sim.now)
        self._mark_change()

    def on_tile_end(self, tid: int) -> None:
        _activity_edge("TS", tid, "end", self.soc.sim.now)
        self.max[tid] = 0
        self._tracker.update_max(tid, 0, self.soc.sim.now)
        self.soc.set_frequency_target(tid, 0.0)
        self._mark_change()

    def _mark_change(self) -> None:
        self._last_change = self.soc.sim.now
        self._last_move = self.soc.sim.now
        self._awaiting = True

    def _check_response(self) -> None:
        """Settled = one full ring pass with no token movement.

        TS has no global error metric in hardware; its response time is
        the time until the token distribution stops changing after an
        activity edge, which is what the end-of-pass quiet check detects.
        """
        if not self._awaiting or self._last_change is None:
            return
        cfg = self.ts_config
        pass_cycles = len(self.ring) * (
            cfg.process_cycles + cfg.hop_cycles
        )
        if self.soc.sim.now - self._last_move >= pass_cycles:
            response = max(1, self._last_move - self._last_change)
            self.response_times.append(response)
            self.response_log.append((self._last_change, response))
            self._awaiting = False
            _record_response("TS", self.soc.sim.now, response)


def build_pm(
    kind: PMKind,
    soc: Soc,
    budget_mw: float,
    *,
    strategy: AllocationStrategy = AllocationStrategy.RELATIVE_PROPORTIONAL,
):
    """Construct the requested power manager for a SoC."""
    if kind is PMKind.BLITZCOIN:
        return BlitzCoinPM(soc, budget_mw, strategy=strategy)
    if kind is PMKind.BLITZCOIN_CENTRAL:
        return CentralizedPM(soc, budget_mw, policy="bcc")
    if kind is PMKind.ROUND_ROBIN:
        return CentralizedPM(soc, budget_mw, policy="crr")
    if kind is PMKind.TOKENSMART:
        return TokenSmartPM(soc, budget_mw, strategy=strategy)
    if kind is PMKind.STATIC:
        return StaticPM(soc, budget_mw, strategy=strategy)
    raise ValueError(f"unknown PM kind {kind!r}")
