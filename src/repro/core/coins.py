"""Coin state and the exact integer exchange arithmetic (Fig. 2).

All arithmetic is integer and *exactly* coin-conserving: every exchange
returns deltas that sum to zero.  Residual error therefore comes only
from quantization, matching the paper's observation that arbitrarily
small error thresholds cannot be reached (Section III-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple


class CoinStateError(ValueError):
    """Raised for invalid coin-state operations."""


@dataclass
class TileCoins:
    """The coin registers of one tile.

    ``has`` may transiently go negative during concurrent exchanges (the
    hardware widens the counter with a sign bit, Section IV-A); ``max``
    is the target entitlement and is never negative.
    """

    has: int
    max: int

    def __post_init__(self) -> None:
        if self.max < 0:
            raise CoinStateError(f"max must be >= 0, got {self.max}")

    @property
    def ratio(self) -> float:
        """The has/max ratio beta; +inf for a zero-max tile holding coins.

        Diagnostic read-out only — never feeds back into exchange
        arithmetic, which stays exact-integer (rule C1).
        """
        if self.max > 0:
            return self.has / self.max  # blitzlint: disable=C1
        return float("inf") if self.has > 0 else 0.0  # blitzlint: disable=C1


@dataclass(frozen=True)
class ExchangeResult:
    """Outcome of one exchange: per-participant coin deltas."""

    deltas: Tuple[int, ...]

    def __post_init__(self) -> None:
        if sum(self.deltas) != 0:
            raise CoinStateError(
                f"exchange must conserve coins, deltas {self.deltas} "
                f"sum to {sum(self.deltas)}"
            )

    @property
    def moved(self) -> int:
        """Total coins that changed hands (half the L1 norm of deltas)."""
        return sum(abs(d) for d in self.deltas) // 2

    @property
    def is_zero(self) -> bool:
        """True when no coins moved (drives the dynamic-timing back-off)."""
        return not any(self.deltas)


def _rounded_share(total: int, weight: int, sum_weights: int) -> int:
    """``round(total * weight / sum_weights)`` in exact integer arithmetic.

    Uses round-half-up on the (possibly negative) scaled value, matching a
    simple hardware rounding adder.
    """
    num = 2 * total * weight + sum_weights
    den = 2 * sum_weights
    # Floor division implements round-half-up of num_raw/den for all signs.
    return num // den


def _apply_cap(target: int, cap: Optional[int]) -> int:
    if cap is None:
        return target
    return min(target, cap)


def _fair_pair_targets(
    i: TileCoins, j: TileCoins, shake: bool = False
) -> Tuple[int, int]:
    """Integer fair split of the pair's coins, canonically rounded.

    Both floor shares are computed, and the (at most one) remainder coin
    goes to whichever placement yields the smaller pair error; among
    equal-error placements the one needing less coin movement wins.
    The rule depends only on the pair's *state*, never on which tile
    initiated, so a converged pair is a fixed point — without this, the
    asymmetric rounding of a naive implementation ping-pongs one coin
    between converged neighbors forever, defeating the dynamic-timing
    back-off.
    """
    sum_max = i.max + j.max
    total = i.has + j.has
    # The fair share of tile t is alpha * max_t with alpha = total /
    # sum_max; scaled by sum_max it is the exact integer total * max_t.
    fair_i = total * i.max
    fair_j = total * j.max
    base_i = fair_i // sum_max
    base_j = fair_j // sum_max
    rem = total - base_i - base_j
    if rem == 0:
        return base_i, base_j
    # Candidate a gives the remainder to i, candidate b gives it to j.
    # Scaling the error by sum_max keeps the comparison in exact integer
    # arithmetic (rule C1): |cand_t - alpha * max_t| * sum_max ==
    # |cand_t * sum_max - total * max_t|.
    err_a = abs((base_i + rem) * sum_max - fair_i) + abs(
        base_j * sum_max - fair_j
    )
    err_b = abs(base_i * sum_max - fair_i) + abs(
        (base_j + rem) * sum_max - fair_j
    )
    if err_a < err_b:
        return base_i + rem, base_j
    if err_b < err_a:
        return base_i, base_j + rem
    # Equal-error tie.  Normally prefer the low-movement candidate (a
    # converged pair stays a fixed point, so dynamic timing can back
    # off).  Under ``shake`` prefer the *moving* candidate: one-coin
    # residues then hop between equal-error states and can meet and
    # annihilate opposite residues elsewhere — the endgame transport
    # that pure fixed-point rounding freezes out.  A candidate's
    # movement is how far it moves i's count.
    move_a = abs(base_i + rem - i.has)
    move_b = abs(base_i - i.has)
    if shake:
        if move_a >= move_b:
            return base_i + rem, base_j
        return base_i, base_j + rem
    if move_a <= move_b:
        return base_i + rem, base_j
    return base_i, base_j + rem


def pairwise_exchange(
    i: TileCoins,
    j: TileCoins,
    cap_i: Optional[int] = None,
    cap_j: Optional[int] = None,
    shake: bool = False,
) -> ExchangeResult:
    """The 1-way exchange step between tiles ``i`` and ``j`` (Algorithm 2).

    Both tiles end at the same has/max ratio within one-coin rounding,
    with the total conserved.  Thermal caps clamp a tile's post-exchange
    count; clamped coins remain with the partner.

    Rules for inactive (max == 0) tiles:

    * one side inactive: all of its coins flow to the active side
      (the "relinquish on end of execution" behaviour of Section III-A);
    * both inactive: no exchange (random pairing eventually connects a
      coin-holding inactive region to an active tile).
    """
    sum_max = i.max + j.max
    total = i.has + j.has
    if sum_max == 0:
        return ExchangeResult((0, 0))
    target_i, _ = _fair_pair_targets(i, j, shake=shake)
    target_i = _apply_cap(target_i, cap_i)
    target_j = total - target_i
    capped_j = _apply_cap(target_j, cap_j)
    if capped_j != target_j:
        # Coins rejected by j's cap stay with i, up to i's own cap; any
        # doubly-rejected surplus stays where it already is.
        overflow = target_j - capped_j
        target_j = capped_j
        roomy_i = _apply_cap(target_i + overflow, cap_i)
        leftover = target_i + overflow - roomy_i
        target_i = roomy_i
        if leftover:
            # Nobody can accept the surplus: abort the exchange.
            return ExchangeResult((0, 0))
    return ExchangeResult((target_i - i.has, target_j - j.has))


def group_exchange(
    states: Sequence[TileCoins],
    caps: Optional[Sequence[Optional[int]]] = None,
) -> ExchangeResult:
    """The 4-way exchange step over a center tile and its neighbors.

    ``states[0]`` is the center tile (Algorithm 1).  Every tile ends at
    the same ratio within rounding; the center absorbs the rounding
    remainder, which keeps the group total exactly conserved.
    """
    if not states:
        raise CoinStateError("group exchange needs at least one tile")
    if caps is not None and len(caps) != len(states):
        raise CoinStateError(
            f"caps length {len(caps)} != states length {len(states)}"
        )
    total = sum(s.has for s in states)
    sum_max = sum(s.max for s in states)
    if sum_max == 0:
        return ExchangeResult(tuple(0 for _ in states))
    targets: List[int] = []
    for idx, s in enumerate(states):
        t = _rounded_share(total, s.max, sum_max)
        t = _apply_cap(t, caps[idx] if caps is not None else None)
        targets.append(t)
    # Center absorbs the remainder so the group total is exact.
    remainder = total - sum(targets)
    center_cap = caps[0] if caps is not None else None
    adjusted = _apply_cap(targets[0] + remainder, center_cap)
    spill = targets[0] + remainder - adjusted
    targets[0] = adjusted
    if spill:
        # Push the capped spill onto the largest-max neighbor that can
        # take it; give up (no exchange) if nobody can.
        order = sorted(
            range(1, len(states)), key=lambda k: states[k].max, reverse=True
        )
        for k in order:
            cap_k = caps[k] if caps is not None else None
            roomy = _apply_cap(targets[k] + spill, cap_k)
            absorbed = roomy - targets[k]
            targets[k] = roomy
            spill -= absorbed
            if spill == 0:
                break
        if spill:
            return ExchangeResult(tuple(0 for _ in states))
    return ExchangeResult(tuple(t - s.has for t, s in zip(targets, states)))
