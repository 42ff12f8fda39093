"""Focused tests for the 4-way exchange protocol (Algorithm 1)."""

import dataclasses

import pytest

from repro.core.config import ExchangeMode, plain_four_way
from repro.noc.packet import MessageType
from tests.conftest import build_engine_rig


def build(d=3, initial=None, max_per_tile=8, **cfg_kwargs):
    config = plain_four_way()
    if cfg_kwargs:
        config = dataclasses.replace(config, **cfg_kwargs)
    return tuple(
        build_engine_rig(
            d,
            config=config,
            max_per_tile=max_per_tile,
            initial=initial,
            seed=11,
        )
    )


class TestMessageComplexity:
    def test_one_group_exchange_uses_twelve_messages(self):
        """Section III-B: request + status + update per neighbor = 12."""
        sim, noc, engine = build(
            d=3, initial=[72, 0, 0, 0, 0, 0, 0, 0, 0], wrap_around=True
        )
        engine.start()
        # Run just long enough for the first exchange round to complete.
        sim.run_for(40)
        per_exchange = noc.stats.coin_packets / max(
            1, engine.exchanges_started
        )
        # Aborted (NACKed) exchanges send fewer; successful ones send 12.
        assert 7.0 <= per_exchange <= 12.5

    def test_uses_request_messages(self):
        sim, noc, engine = build(d=3)
        engine.start()
        sim.run_for(200)
        assert noc.stats.by_type.get(MessageType.COIN_REQUEST.value, 0) > 0


class TestProtocolSafety:
    def test_locked_participants_are_released(self):
        """No tile is ever left *permanently* locked.

        A snapshot may catch one in-flight group exchange (a center and
        up to four locked neighbors); the same tiles must not still be
        locked a little later.
        """
        sim, noc, engine = build(d=4, initial=[128] + [0] * 15)
        engine.start()
        sim.run_for(20_000)
        persistent = None
        for _ in range(5):
            locked_now = {
                (t, fsm.lock_uid)
                for t, fsm in engine.fsm.items()
                if fsm.locked
            }
            if persistent is None:
                persistent = locked_now
            else:
                persistent &= locked_now
            sim.run_for(500)
        assert not persistent, f"permanently locked: {persistent}"

    def test_conservation_under_heavy_collision_load(self):
        sim, noc, engine = build(d=5, initial=[200] + [0] * 24)
        engine.start()
        for _ in range(20):
            sim.run_for(1_000)
            engine.check_conservation()

    def test_aborted_exchanges_count_as_nacked(self):
        sim, noc, engine = build(d=3)
        engine.start()
        sim.run_for(5_000)
        # With nine tiles requesting 4 neighbors each, collisions are
        # guaranteed; they must be accounted, not lost.
        assert engine.exchanges_nacked > 0
        assert (
            engine.exchanges_started
            >= engine.exchanges_nacked + engine.exchanges_zero
        )

    def test_stale_status_ignored(self):
        """A status with an outdated exchange uid must not corrupt a
        center's collection state."""
        sim, noc, engine = build(d=3)
        engine.start()
        sim.run_for(3_000)
        center = engine.fsm[4]
        # Inject a stale status by hand.
        from repro.core.engine import _StatusPayload
        from repro.noc.packet import Packet

        noc.send(
            Packet(
                src=1,
                dst=4,
                msg_type=MessageType.COIN_STATUS,
                payload=_StatusPayload(5, 8, exchange_uid=-999),
            )
        )
        sim.run_for(1_000)
        engine.check_conservation()


class TestFourWayConvergence:
    def test_group_equalization_on_plus_topology(self):
        """Center + 4 neighbors equalize in one engine run."""
        sim, noc, engine = build(
            d=3, initial=[0, 0, 0, 0, 45, 0, 0, 0, 0], wrap_around=False
        )
        engine.start()
        converged = engine.run_until_converged(100_000)
        assert converged is not None

    def test_four_way_with_wraparound(self):
        sim, noc, engine = build(
            d=4, initial=[128] + [0] * 15, wrap_around=True
        )
        engine.start()
        assert engine.run_until_converged(300_000) is not None


def watchdog_trial():
    """A fault-free d=8 4-way trial run to convergence, with every
    watchdog event it made: ``(sim, engine, made)``, where ``made`` maps
    the exchange watchdog (armed in ``_arm_timeout``) and the lock
    watchdog (armed in ``_on_request``) to their events."""
    sim, noc, engine = build(d=8, initial=[8 * 64] + [0] * 63)
    made = {"_arm_timeout": [], "_on_request": []}
    schedule = sim.schedule

    def recording_schedule(delay, callback, priority=0):
        event = schedule(delay, callback, priority)
        # CoinExchangeEngine.<method>.<locals>.<lambda>
        site = callback.__qualname__.split(".")[1]
        if site in made:
            made[site].append(event)
        return event

    sim.schedule = recording_schedule
    engine.start()
    assert engine.run_until_converged(400_000) is not None
    return sim, engine, made


class TestLockWatchdog:
    def test_released_locks_leave_no_pending_watchdog(self):
        """After a fault-free d=8 trial, no more lock watchdogs are
        still armed than there are held locks: a lock released by the
        center's update disarms its watchdog."""
        sim, engine, made = watchdog_trial()
        # Armed: neither disarmed (sequence number -1) nor out of the
        # heap (fired or dropped).
        armed = [
            event
            for event in made["_on_request"]
            if event._seq >= 0 and event._sim is sim
        ]
        held = sum(1 for fsm in engine.fsm.values() if fsm.locked)
        assert len(armed) <= held

    def test_one_watchdog_event_per_tile(self):
        """In the whole trial each tile makes at most one exchange
        watchdog event and one lock watchdog event, and re-arms it."""
        sim, engine, made = watchdog_trial()
        fsms = list(engine.fsm.values())
        for site, kept in (
            ("_arm_timeout", [fsm.timeout_event for fsm in fsms]),
            ("_on_request", [fsm.lock_event for fsm in fsms]),
        ):
            kept = [event for event in kept if event is not None]
            assert made[site], site
            # Every event made is the one its tile still holds.
            assert sorted(map(id, made[site])) == sorted(map(id, kept)), site
        assert engine.exchanges_started > 10 * len(fsms)
