"""Healthy power managers run clean under the in-loop run checks.

No second checker rides along: the run is checked by what users run.
The budget-overshoot monitor watches the power cap (a 10% transient
band past the actuator-slew grace window), the sanitizer
(``BLITZCOIN_SANITIZE``) re-checks coin and packet conservation after
every event of a BlitzCoin run, and every frequency a tile lands on is
read back from the SoC's trace recorder.
"""

import pytest

from repro.analysis.sanitize import SANITIZE_ENV
from repro.obs.monitor import BudgetOvershootMonitor, MonitorSet
from repro.obs.runtime import observing
from repro.soc.executor import WorkloadExecutor
from repro.soc.pm import BlitzCoinPM, PMKind, build_pm
from repro.soc.presets import soc_3x3
from repro.soc.soc import Soc
from repro.workloads.apps import autonomous_vehicle_parallel

BUDGET_MW = 120.0


class TestCleanRuns:
    @pytest.mark.parametrize(
        "kind", [PMKind.BLITZCOIN, PMKind.ROUND_ROBIN, PMKind.STATIC]
    )
    def test_healthy_schemes_validate_clean(self, kind, monkeypatch):
        monkeypatch.setenv(SANITIZE_ENV, "1")
        soc = Soc(soc_3x3())
        pm = build_pm(kind, soc, BUDGET_MW)
        overshoot = BudgetOvershootMonitor(BUDGET_MW)
        monitors = MonitorSet([overshoot])
        with observing(monitors):
            WorkloadExecutor(soc, autonomous_vehicle_parallel(), pm).run()
        monitors.finish()
        assert monitors.last_time > 100 * 1_000
        assert overshoot.alerts == [], overshoot.alerts[0].message
        for tid, actuator in sorted(soc.actuators.items()):
            f_max = actuator.curve.spec.f_max_hz
            landed = soc.recorder[f"freq/{tid}"].values
            assert landed, tid
            assert all(0.0 <= f <= f_max * (1 + 1e-9) for f in landed), tid
        if isinstance(pm, BlitzCoinPM):
            assert pm.engine.sanitizer.events_checked > 0
            pm.engine.check_conservation()
