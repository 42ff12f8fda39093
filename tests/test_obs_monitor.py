"""Online health monitors: detector logic and the bit-identity claim.

Two halves.  The unit tests drive each monitor directly through the
sink interface with synthetic event streams and assert exactly which
alerts fire.  The identity tests re-run real simulations with the
monitor battery installed and require *nothing* to change — final coin
vectors, TrialResults, and the committed golden Fig. 3/4 fixture
bodies, also under BLITZCOIN_SANITIZE-style config and a nonzero
FaultPlan — because monitors ride the same observe-only sink path as
every other instrument.
"""

import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import preferred_embodiment
from repro.core.runner import run_convergence_trial
from repro.faults.plan import FaultPlan, LinkFaultRates
from repro.fuzz.oracles import execute_scenario
from repro.obs import observing
from repro.obs.monitor import (
    Alert,
    BudgetOvershootMonitor,
    ConvergenceStallMonitor,
    MonitorSet,
    OscillationMonitor,
    ReconcileBacklogMonitor,
    StarvationMonitor,
    default_monitors,
    final_coin_levels,
)
from repro.obs.runtime import current
from repro.obs.sink import Observation
from tests.conftest import build_engine_rig
from tests.test_golden_traces import CASES, GOLDEN_DIR
from tests.test_serve import alerting_scenario


# --------------------------------------------------------------------- alerts
class TestAlert:
    def test_to_dict_shape(self):
        alert = Alert(
            monitor="m", severity="warn", cycle=7, message="x", tile=2,
            epoch="trial0", data={"k": 1},
        )
        assert alert.to_dict() == {
            "monitor": "m", "severity": "warn", "cycle": 7, "tile": 2,
            "epoch": "trial0", "message": "x", "data": {"k": 1},
        }

    def test_rejects_unknown_severity(self):
        with pytest.raises(ValueError, match="severity"):
            Alert(monitor="m", severity="fatal", cycle=0, message="x")


# ------------------------------------------------------------------- monitors
class TestBudgetOvershootMonitor:
    def _feed(self, monitor, samples):
        for time, tile, mw in samples:
            monitor.on_sample("soc.power_mw", time, mw, tile)

    def test_sustained_overshoot_alerts_with_attribution(self):
        monitor = BudgetOvershootMonitor(100.0, grace_cycles=50)
        self._feed(
            monitor,
            [(0, 0, 60.0), (10, 1, 70.0), (500, 1, 20.0)],
        )
        assert len(monitor.alerts) == 1
        alert = monitor.alerts[0]
        assert alert.severity == "error"
        assert alert.cycle == 10
        assert alert.tile == 1  # the hungriest tile at the peak
        assert alert.data["duration_cycles"] == 490

    def test_transient_within_grace_is_silent(self):
        monitor = BudgetOvershootMonitor(100.0, grace_cycles=50)
        self._feed(
            monitor, [(0, 0, 60.0), (10, 1, 70.0), (40, 1, 20.0)]
        )
        monitor.flush(1000)
        assert monitor.alerts == []

    def test_tolerance_band_is_not_an_overshoot(self):
        monitor = BudgetOvershootMonitor(100.0, grace_cycles=0)
        self._feed(monitor, [(0, 0, 109.0), (5000, 0, 10.0)])
        assert monitor.alerts == []

    def test_open_episode_closed_by_flush(self):
        monitor = BudgetOvershootMonitor(100.0, grace_cycles=50)
        self._feed(monitor, [(0, 0, 150.0)])
        assert monitor.alerts == []
        monitor.flush(400)
        assert len(monitor.alerts) == 1

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError, match="budget_mw"):
            BudgetOvershootMonitor(0.0)


def _apply(monitor, time, tile, delta, has):
    monitor.on_event(
        "apply", time, "engine", tile, {"delta": delta, "has": has}
    )


class TestStarvationMonitor:
    def test_active_zero_coin_tile_alerts(self):
        monitor = StarvationMonitor(window_cycles=100)
        monitor.on_event("tile_start", 0, "pm", 3, {})
        _apply(monitor, 10, 3, -2, 0)
        _apply(monitor, 300, 5, 1, 4)  # other tile proves liveness
        assert len(monitor.alerts) == 1
        alert = monitor.alerts[0]
        assert alert.tile == 3 and alert.severity == "error"
        assert alert.cycle == 10

    def test_idle_zero_coin_tile_is_normal(self):
        monitor = StarvationMonitor(window_cycles=100)
        _apply(monitor, 10, 3, -2, 0)  # zero coins, but never active
        _apply(monitor, 500, 5, 1, 4)
        monitor.flush(1000)
        assert monitor.alerts == []

    def test_refill_clears_the_clock(self):
        monitor = StarvationMonitor(window_cycles=100)
        monitor.on_event("tile_start", 0, "pm", 3, {})
        _apply(monitor, 10, 3, -2, 0)
        _apply(monitor, 50, 3, 1, 1)  # refilled inside the window
        _apply(monitor, 500, 5, 1, 4)
        monitor.flush(1000)
        assert monitor.alerts == []

    def test_alerts_once_per_episode(self):
        monitor = StarvationMonitor(window_cycles=100)
        monitor.on_event("tile_start", 0, "pm", 3, {})
        _apply(monitor, 10, 3, -2, 0)
        for t in (300, 400, 500):
            _apply(monitor, t, 5, 1, 4)
        assert len(monitor.alerts) == 1


class TestOscillationMonitor:
    def test_thrash_detected(self):
        monitor = OscillationMonitor(window_cycles=1000, max_flips=4)
        for i in range(10):
            _apply(monitor, i * 10, 2, 1 if i % 2 else -1, 5)
        assert len(monitor.alerts) >= 1
        assert monitor.alerts[0].tile == 2
        assert monitor.alerts[0].data["flips"] == 4

    def test_steady_flow_is_silent(self):
        monitor = OscillationMonitor(window_cycles=1000, max_flips=4)
        for i in range(20):
            _apply(monitor, i * 10, 2, 3, 5)
        assert monitor.alerts == []

    def test_slow_reversals_age_out_of_window(self):
        monitor = OscillationMonitor(window_cycles=100, max_flips=3)
        for i in range(12):
            _apply(monitor, i * 90, 2, 1 if i % 2 else -1, 5)
        assert monitor.alerts == []


class TestConvergenceStallMonitor:
    def test_gap_between_applies_alerts(self):
        monitor = ConvergenceStallMonitor(stall_cycles=1000)
        _apply(monitor, 10, 0, 1, 3)
        _apply(monitor, 5000, 1, 1, 3)
        assert len(monitor.alerts) == 1
        assert monitor.alerts[0].data["gap_cycles"] == 4990

    def test_trailing_gap_alerts_on_flush(self):
        monitor = ConvergenceStallMonitor(stall_cycles=1000)
        _apply(monitor, 10, 0, 1, 3)
        monitor.flush(9000)
        assert len(monitor.alerts) == 1

    def test_busy_run_is_silent(self):
        monitor = ConvergenceStallMonitor(stall_cycles=1000)
        for i in range(20):
            _apply(monitor, i * 500, 0, 1, 3)
        monitor.flush(20 * 500)
        assert monitor.alerts == []


class TestReconcileBacklogMonitor:
    def test_backlog_crossing_alerts_once(self):
        monitor = ReconcileBacklogMonitor(max_backlog=4)
        monitor.on_inc("engine.coins_lost", 100, 6, {})
        monitor.on_inc("engine.coins_lost", 200, 1, {})
        assert len(monitor.alerts) == 1
        assert monitor.alerts[0].data["backlog"] == 6

    def test_rearms_after_draining(self):
        monitor = ReconcileBacklogMonitor(max_backlog=4)
        monitor.on_inc("engine.coins_lost", 100, 6, {})
        monitor.on_inc("engine.coins_reminted", 200, 6, {})
        monitor.on_inc("engine.coins_lost", 300, 6, {})
        assert len(monitor.alerts) == 2

    def test_reconciled_backlog_is_silent(self):
        monitor = ReconcileBacklogMonitor(max_backlog=4)
        for t in range(10):
            monitor.on_inc("engine.coins_lost", t * 10, 1, {})
            monitor.on_inc("engine.coins_reminted", t * 10 + 5, 1, {})
        assert monitor.alerts == []


# ------------------------------------------------------------------ MonitorSet
class TestMonitorSet:
    def test_forwards_to_wrapped_observation(self):
        session = Observation("wrapped")
        monitors = MonitorSet(default_monitors(), session)
        monitors.inc("engine.coin_deltas", 5)
        monitors.event("apply", 5, cat="engine", track=0,
                       args={"delta": 1, "has": 2})
        monitors.sample("soc.power_mw", 6, 42.0, cat="soc", track=0)
        assert session.registry.value("engine.coin_deltas") == 1
        assert len(session.trace.events) == 1
        assert len(session.trace.samples) == 1

    def test_epoch_flushes_and_resets(self):
        stall = ConvergenceStallMonitor(stall_cycles=100)
        monitors = MonitorSet([stall])
        monitors.event("apply", 10, cat="engine", track=0,
                       args={"delta": 1, "has": 1})
        monitors.event("apply", 900, cat="engine", track=0,
                       args={"delta": 1, "has": 2})  # gap alert (epoch "")
        monitors.epoch("trial1")
        assert monitors.last_time == 0  # trials restart sim time
        monitors.event("apply", 5, cat="engine", track=0,
                       args={"delta": 1, "has": 1})
        monitors.finish()
        alerts = monitors.alerts()
        assert [a.epoch for a in alerts] == [""]

    def test_alert_counts_include_quiet_monitors(self):
        monitors = MonitorSet(default_monitors(budget_mw=100.0))
        assert monitors.alert_counts() == {
            "budget_overshoot": 0,
            "starvation": 0,
            "coin_oscillation": 0,
            "convergence_stall": 0,
            "reconcile_backlog": 0,
        }

    def test_default_monitors_budget_is_optional(self):
        names = [m.name for m in default_monitors()]
        assert "budget_overshoot" not in names
        names = [m.name for m in default_monitors(budget_mw=50.0)]
        assert names[0] == "budget_overshoot"

    def test_final_coin_levels_reads_last_epoch(self):
        session = Observation()
        monitors = MonitorSet([], session)
        monitors.event("apply", 5, cat="engine", track=0,
                       args={"delta": 1, "has": 9})
        monitors.epoch("trial1")
        monitors.event("apply", 5, cat="engine", track=0,
                       args={"delta": -1, "has": 3})
        monitors.event("apply", 8, cat="engine", track=1,
                       args={"delta": 1, "has": 6})
        assert final_coin_levels(session) == {0: 3, 1: 6}


class TestOnAlert:
    """``MonitorSet(on_alert=...)`` publishes each alert as it is raised."""

    @staticmethod
    def _run(published):
        stall = ConvergenceStallMonitor(stall_cycles=100)
        backlog = ReconcileBacklogMonitor(max_backlog=4)
        monitors = MonitorSet([stall, backlog], on_alert=published.append)
        monitors.event("apply", 10, cat="engine", track=0,
                       args={"delta": 1, "has": 1})
        monitors.event("apply", 500, cat="engine", track=0,
                       args={"delta": 1, "has": 2})  # stall gap @10
        monitors.inc("engine.coins_lost", 600, 6)  # backlog @600
        monitors.inc("engine.coins_lost", 900, 1)  # still over: silent
        return monitors, stall, backlog

    def test_each_alert_published_once_in_emission_order(self):
        published = []
        monitors, stall, backlog = self._run(published)
        assert published == [stall.alerts[0], backlog.alerts[0]]
        monitors.finish()  # trailing stall gap, stamped @500
        assert published == [stall.alerts[0], backlog.alerts[0],
                             stall.alerts[1]]
        assert [a.cycle for a in published] == [10, 600, 500]
        # The stored order is the stable sort of the emission order.
        assert sorted(
            published, key=lambda a: (a.epoch, a.cycle, a.monitor)
        ) == monitors.alerts()

    def test_second_finish_publishes_nothing(self):
        published = []
        monitors, _, _ = self._run(published)
        monitors.finish()
        assert len(published) == 3
        monitors.finish()
        assert len(published) == 3

    def test_scenario_alerts_published_during_run_and_at_finish(self):
        # The MonitorSet is installed while the run executes and is
        # uninstalled before finish() flushes the monitors.
        during_run = []
        execution = execute_scenario(
            alerting_scenario(7),
            on_alert=lambda alert: during_run.append(current() is not None),
        )
        assert during_run.count(True) == 215
        assert during_run.count(False) == 1
        assert during_run[-1] is False
        assert len(execution.alerts) == 216


# ------------------------------------------------------------- identity tests
def _monitored():
    return MonitorSet(default_monitors(budget_mw=120.0), Observation())


def _trial(seed, config=None):
    return run_convergence_trial(
        4, config or preferred_embodiment(), seed=seed, threshold=0.5
    )


class TestMonitorIdentity:
    """Monitors enabled must change no simulation result."""

    @pytest.mark.parametrize("seed", [0, 3])
    def test_trial_bit_identical(self, seed):
        base = _trial(seed)
        with observing(_monitored()):
            monitored = _trial(seed)
        assert monitored == base

    def test_trial_bit_identical_under_sanitizer(self):
        config = dataclasses.replace(preferred_embodiment(), sanitize=True)
        base = _trial(7, config)
        with observing(_monitored()):
            monitored = _trial(7, config)
        assert monitored == base

    def test_trial_bit_identical_under_faults(self):
        plan = FaultPlan(seed=11, link=LinkFaultRates(drop=0.05))
        config = dataclasses.replace(
            preferred_embodiment(), fault_plan=plan
        )
        base = _trial(11, config)
        assert base.packets_discarded > 0  # the plan actually bites
        with observing(_monitored()):
            monitored = _trial(11, config)
        assert monitored == base

    def test_final_coin_vector_bit_identical(self):
        def run():
            rig = build_engine_rig(
                d=3, initial=[24, 0, 0, 0, 0, 0, 0, 0, 0], seed=5,
                start=True,
            )
            rig.sim.run(until=50_000)
            return rig.engine.snapshot_has()

        base = run()
        monitors = _monitored()
        with observing(monitors):
            monitored = run()
        assert monitored == base
        # ...and the monitors actually watched the run.
        assert monitors.observation.registry.value("engine.coin_deltas") > 0

    @pytest.mark.parametrize(
        "name", ["fig03_1way_d3", "fig03_4way_d3", "fig04_d4"]
    )
    def test_golden_fixture_body_untouched(self, name):
        """Recomputing a committed golden case under monitors yields the
        committed bytes — the strongest no-perturbation check we have."""
        expected = json.loads(
            (Path(GOLDEN_DIR) / f"{name}.json").read_text()
        )
        with observing(_monitored()):
            actual = CASES[name]()
        assert actual == expected

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_property_any_seed_identical(self, seed):
        config = preferred_embodiment()
        base = run_convergence_trial(3, config, seed=seed, threshold=1.5)
        with observing(_monitored()):
            monitored = run_convergence_trial(
                3, config, seed=seed, threshold=1.5
            )
        assert monitored == base
