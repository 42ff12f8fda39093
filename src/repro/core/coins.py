"""Coin state and the exact integer exchange arithmetic (Fig. 2).

All arithmetic is integer and *exactly* coin-conserving: every exchange
returns deltas that sum to zero.  Residual error therefore comes only
from quantization, matching the paper's observation that arbitrarily
small error thresholds cannot be reached (Section III-B).

Each technique has one kernel on plain integers (:func:`pair_deltas`,
:func:`group_deltas`), which the engine calls with the fields of its
status messages; :func:`pairwise_exchange` wraps the pair kernel for
callers holding :class:`TileCoins`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple


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


def _unbalanced(deltas: Tuple[int, ...]) -> CoinStateError:
    return CoinStateError(
        f"exchange must conserve coins, deltas {deltas} "
        f"sum to {sum(deltas)}"
    )


@dataclass(frozen=True)
class ExchangeResult:
    """Outcome of one exchange: per-participant coin deltas."""

    deltas: Tuple[int, ...]

    def __post_init__(self) -> None:
        if sum(self.deltas) != 0:
            raise _unbalanced(self.deltas)


def pair_deltas(
    has_i: int,
    max_i: int,
    has_j: int,
    max_j: int,
    cap_i: Optional[int] = None,
    cap_j: Optional[int] = None,
    shake: bool = False,
) -> Tuple[int, int]:
    """The 1-way exchange step on plain integers: ``(delta_i, delta_j)``.

    The kernel behind :func:`pairwise_exchange`, which documents the
    rules; the engine calls it with the status fields directly.  The
    two deltas sum to zero, or :class:`CoinStateError` is raised.

    The fair split is canonically rounded: the (at most one) remainder
    coin goes to whichever placement yields the smaller pair error, and
    among equal-error placements the one needing less coin movement
    wins.  The rule depends only on the pair's *state*, never on which
    tile initiated, so a converged pair is a fixed point — without
    this, the asymmetric rounding of a naive implementation ping-pongs
    one coin between converged neighbors forever, defeating the
    dynamic-timing back-off.
    """
    sum_max = max_i + max_j
    if sum_max == 0:
        return 0, 0
    total = has_i + has_j
    # The fair share of tile t is alpha * max_t with alpha = total /
    # sum_max; scaled by sum_max it is the exact integer total * max_t.
    fair_i = total * max_i
    fair_j = total * max_j
    base_i = fair_i // sum_max
    base_j = fair_j // sum_max
    rem = total - base_i - base_j
    target_i = base_i
    if rem:
        # Candidate a gives the remainder to i, candidate b gives it to
        # j.  Scaling the error by sum_max keeps the comparison in exact
        # integer arithmetic (rule C1): |cand_t - alpha * max_t| *
        # sum_max == |cand_t * sum_max - total * max_t|.
        err_a = abs((base_i + rem) * sum_max - fair_i) + abs(
            base_j * sum_max - fair_j
        )
        err_b = abs(base_i * sum_max - fair_i) + abs(
            (base_j + rem) * sum_max - fair_j
        )
        if err_a < err_b:
            target_i = base_i + rem
        elif err_a == err_b:
            # Equal-error tie.  Normally prefer the low-movement
            # candidate (a converged pair stays a fixed point, so
            # dynamic timing can back off).  Under ``shake`` prefer the
            # *moving* candidate: one-coin residues then hop between
            # equal-error states and can meet and annihilate opposite
            # residues elsewhere — the endgame transport that pure
            # fixed-point rounding freezes out.  A candidate's movement
            # is how far it moves i's count.
            move_a = abs(base_i + rem - has_i)
            move_b = abs(base_i - has_i)
            if (move_a >= move_b) if shake else (move_a <= move_b):
                target_i = base_i + rem
    if cap_i is not None and target_i > cap_i:
        target_i = cap_i
    target_j = total - target_i
    if cap_j is not None and target_j > cap_j:
        # Coins rejected by j's cap stay with i, up to i's own cap; if
        # i cannot take them either, nobody can accept the surplus and
        # the exchange is aborted.
        target_i += target_j - cap_j
        target_j = cap_j
        if cap_i is not None and target_i > cap_i:
            return 0, 0
    delta_i = target_i - has_i
    delta_j = target_j - has_j
    if delta_i + delta_j:
        raise _unbalanced((delta_i, delta_j))
    return delta_i, delta_j


def group_deltas(
    has: Sequence[int],
    maxes: Sequence[int],
    caps: Optional[Sequence[Optional[int]]] = None,
) -> Tuple[int, ...]:
    """The 4-way exchange step on plain integers: one delta per tile.

    Index 0 is the center tile (Algorithm 1).
    Each tile's share is ``round(total * max / sum_max)``, rounded half
    up in exact integer arithmetic like a simple hardware rounding
    adder.  The deltas sum to zero, or :class:`CoinStateError` is
    raised.
    """
    n = len(has)
    if not n:
        raise CoinStateError("group exchange needs at least one tile")
    if caps is not None and len(caps) != n:
        raise CoinStateError(
            f"caps length {len(caps)} != states length {n}"
        )
    total = sum(has)
    sum_max = sum(maxes)
    if sum_max == 0:
        return (0,) * n
    den = 2 * sum_max
    twice_total = 2 * total
    # Floor division implements round-half-up for all signs.
    targets = [(twice_total * m + sum_max) // den for m in maxes]
    if caps is not None:
        for k, cap in enumerate(caps):
            if cap is not None and targets[k] > cap:
                targets[k] = cap
    # The center absorbs the rounding remainder, which keeps the group
    # total exact.
    targets[0] += total - sum(targets)
    center_cap = caps[0] if caps is not None else None
    if caps is not None and center_cap is not None and targets[0] > center_cap:
        # Push the center's capped spill onto the largest-max neighbor
        # that can take it; give up (no exchange) if nobody can.
        spill = targets[0] - center_cap
        targets[0] = center_cap
        for k in sorted(range(1, n), key=lambda k: maxes[k], reverse=True):
            cap = caps[k]
            room = spill if cap is None else min(spill, cap - targets[k])
            if room > 0:
                targets[k] += room
                spill -= room
                if spill == 0:
                    break
        if spill:
            return (0,) * n
    deltas = tuple([t - h for t, h in zip(targets, has)])
    if sum(deltas):
        raise _unbalanced(deltas)
    return deltas


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
    return ExchangeResult(
        pair_deltas(i.has, i.max, j.has, j.max, cap_i, cap_j, shake)
    )
