"""Configuration of the BlitzCoin algorithm.

Defaults follow the paper's preferred embodiment: 1-way exchange with
dynamic timing, wrap-around neighbors, and random pairing once every 16
exchanges (Sections III-B and III-D).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional

from repro.faults.plan import FaultPlan


class ConfigError(ValueError):
    """Raised for inconsistent algorithm configurations."""


class ExchangeMode(enum.Enum):
    """Coin-exchange technique (Fig. 2)."""

    ONE_WAY = "1-way"
    FOUR_WAY = "4-way"


@dataclass(frozen=True)
class BlitzCoinConfig:
    """All knobs of the coin-exchange algorithm."""

    mode: ExchangeMode = ExchangeMode.ONE_WAY

    #: Base interval between a tile's exchange initiations, in NoC cycles
    #: (the ``refreshCount`` of Fig. 2).
    refresh_count: int = 32

    # ----------------------------------------------------- dynamic timing
    #: Enable the exponential back-off of Section III-D.
    dynamic_timing: bool = True
    #: Multiplicative back-off factor applied when an exchange moved zero
    #: coins (the paper's lambda).
    backoff_factor: float = 2.0
    #: Additive speed-up (cycles) applied when coins did move (the k).
    speedup_step: int = 16
    #: Clamp range for the dynamic interval.
    min_interval: int = 16
    max_interval: int = 1024

    # ------------------------------------------------------- neighborhood
    #: Wrap-around (torus) neighbor definition (Fig. 5, left).
    wrap_around: bool = True
    #: Random pairing with a non-neighbor every ``random_pairing_every``
    #: exchanges; 0 disables it (Fig. 5, right).
    random_pairing_every: int = 16

    # ------------------------------------------------------- thermal caps
    #: Optional per-tile hard coin caps for hotspot mitigation
    #: (Section III-A/III-B); tiles absent from the map are uncapped.
    thermal_caps: Optional[Dict[int, int]] = None
    #: Optional *neighborhood* hotspot threshold: a tile rejects incoming
    #: coins that would push the combined allocation of itself plus its
    #: (last observed) neighbors above this many coins — the paper's
    #: "reject coins from an exchange if the total allocations to a tile
    #: and its neighbors exceed a certain threshold" (Section III-A).
    hotspot_neighborhood_cap: Optional[int] = None

    # -------------------------------------------------------- convergence
    #: Global mean-error threshold declaring convergence (coins).
    convergence_threshold: float = 1.0

    #: Cycles a tile's FSM spends computing one coin update (the paper's
    #: FSM finishes in one cycle; the 4-way arithmetic needs pipelining,
    #: modeled as a longer compute).
    compute_cycles_one_way: int = 1
    compute_cycles_four_way: int = 4

    #: Watchdog on an outstanding exchange: if the reply has not arrived
    #: after this many cycles the initiator abandons it and moves on
    #: (a dropped or misrouted packet must never deadlock a tile's FSM).
    #: None disables the watchdog.
    exchange_timeout_cycles: Optional[int] = 4096

    # ---------------------------------------------------------- resilience
    #: Consecutive timeouts against one partner before the initiator
    #: stops selecting it in round-robin rotation (it keeps probing the
    #: suspect partner once every ``partner_retry_limit`` rotations so a
    #: revived tile is re-adopted).  0 disables partner suspension.
    partner_retry_limit: int = 3

    #: Cycles (NoC cycles) between a loss notification for an in-flight
    #: coin update and the re-mint of its coins, modeling the hardware
    #: reconciliation scan interval (credit-return timeout).
    reconcile_delay_cycles: int = 64

    #: Declarative fault plan (repro.faults); None runs fault-free.
    #: The runner installs an injector for the plan around each trial.
    fault_plan: Optional[FaultPlan] = None

    # --------------------------------------------------------- verification
    #: Attach the runtime sanitizer (repro.analysis.sanitize) to every
    #: engine built with this config; the BLITZCOIN_SANITIZE=1
    #: environment variable enables it globally regardless of this flag.
    sanitize: bool = False

    def __post_init__(self) -> None:
        if self.refresh_count < 1:
            raise ConfigError(f"refresh_count must be >= 1, got {self.refresh_count}")
        if self.backoff_factor < 1.0:
            raise ConfigError(
                f"backoff_factor must be >= 1.0, got {self.backoff_factor}"
            )
        if self.speedup_step < 0:
            raise ConfigError(f"speedup_step must be >= 0, got {self.speedup_step}")
        if not (1 <= self.min_interval <= self.max_interval):
            raise ConfigError(
                "need 1 <= min_interval <= max_interval, got "
                f"({self.min_interval}, {self.max_interval})"
            )
        if self.random_pairing_every < 0:
            raise ConfigError(
                f"random_pairing_every must be >= 0, got {self.random_pairing_every}"
            )
        if self.convergence_threshold <= 0:
            raise ConfigError(
                f"convergence_threshold must be > 0, got {self.convergence_threshold}"
            )
        if self.thermal_caps is not None:
            bad = {t: c for t, c in self.thermal_caps.items() if c < 0}
            if bad:
                raise ConfigError(f"negative thermal caps: {bad}")
        if (
            self.exchange_timeout_cycles is not None
            and self.exchange_timeout_cycles < 1
        ):
            raise ConfigError(
                "exchange_timeout_cycles must be >= 1, got "
                f"{self.exchange_timeout_cycles}"
            )
        if self.partner_retry_limit < 0:
            raise ConfigError(
                "partner_retry_limit must be >= 0, got "
                f"{self.partner_retry_limit}"
            )
        if self.reconcile_delay_cycles < 0:
            raise ConfigError(
                "reconcile_delay_cycles must be >= 0, got "
                f"{self.reconcile_delay_cycles}"
            )
        if (
            self.hotspot_neighborhood_cap is not None
            and self.hotspot_neighborhood_cap < 0
        ):
            raise ConfigError(
                "hotspot_neighborhood_cap must be >= 0, got "
                f"{self.hotspot_neighborhood_cap}"
            )

    @property
    def compute_cycles(self) -> int:
        """FSM compute latency, in NoC cycles, for the configured mode."""
        if self.mode is ExchangeMode.ONE_WAY:
            return self.compute_cycles_one_way
        return self.compute_cycles_four_way

    def cap_for(self, tid: int) -> Optional[int]:
        """Thermal coin cap for tile ``tid`` (None = uncapped)."""
        if self.thermal_caps is None:
            return None
        return self.thermal_caps.get(tid)


def plain_one_way() -> BlitzCoinConfig:
    """1-way exchange with every optimization disabled (Fig. 3 baseline)."""
    return BlitzCoinConfig(
        mode=ExchangeMode.ONE_WAY,
        dynamic_timing=False,
        wrap_around=False,
        random_pairing_every=0,
    )


def plain_four_way() -> BlitzCoinConfig:
    """4-way exchange with every optimization disabled (Fig. 3 baseline)."""
    return BlitzCoinConfig(
        mode=ExchangeMode.FOUR_WAY,
        dynamic_timing=False,
        wrap_around=False,
        random_pairing_every=0,
    )


def preferred_embodiment() -> BlitzCoinConfig:
    """The configuration the paper implements in hardware."""
    return BlitzCoinConfig()
