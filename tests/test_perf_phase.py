"""Phase-attribution profiler: attribution accounting and bit-identity."""

import dataclasses
import json

import pytest

from repro.core.config import preferred_embodiment
from repro.core.runner import run_trials
from repro.obs.export import validate_chrome_trace, write_trace
from repro.perf.phase import (
    PHASES,
    PhaseProfiler,
    classify_site,
    phase_chrome_trace,
    phase_summary_lines,
)


def _workload():
    return run_trials(
        4, preferred_embodiment(), 2, base_seed=3, threshold=1.5
    )


class TestClassify:
    def test_known_prefixes(self):
        assert classify_site("repro.core.engine:CoinExchangeEngine.go") == "engine"
        assert classify_site("repro.noc.behavioral:BehavioralNoc.step") == "noc"
        assert classify_site("repro.thermal.model:step") == "thermal"
        assert classify_site("repro.sim.kernel:Simulator.run") == "kernel"

    def test_unknown_module_is_other(self):
        assert classify_site("some.third.party:fn") == "other"

    def test_prefix_must_match_whole_component(self):
        # "repro.corex" must not match the "repro.core" prefix.
        assert classify_site("repro.corex.mod:fn") == "other"

    def test_every_prefix_phase_is_listed(self):
        assert set(classify_site(f"{m}:f") for m in (
            "repro.core.x", "repro.noc.x", "repro.thermal.x",
            "repro.soc.x", "repro.workloads.x", "repro.faults.x",
            "repro.dvfs.x", "repro.sim.x",
        )) <= set(PHASES)


class TestAttribution:
    def test_phases_sum_exactly_to_total(self):
        with PhaseProfiler() as prof:
            _workload()
        # The residual "harness" phase makes the partition exact; the
        # acceptance bar is 5% but the construction gives ~0.
        assert prof.total_s > 0
        assert prof.events > 0
        assert prof.attributed_s() == pytest.approx(prof.total_s, rel=0.05)

    def test_simulation_phases_dominate(self):
        with PhaseProfiler() as prof:
            _workload()
        sim = prof.totals.get("engine", 0.0) + prof.totals.get("noc", 0.0)
        assert sim > 0.5 * prof.total_s

    def test_enabled_run_is_bit_identical_to_disabled(self):
        baseline = [dataclasses.asdict(r) for r in _workload()]
        with PhaseProfiler():
            profiled = [dataclasses.asdict(r) for r in _workload()]
        assert profiled == baseline

    def test_epoch_switches_attribution_bucket(self):
        prof = PhaseProfiler()
        prof.start()
        prof.epoch("t0")
        prof.finish()
        assert "t0" in prof.epochs
        assert prof.epochs[0] == ""

    def test_shares_sum_to_one(self):
        with PhaseProfiler() as prof:
            _workload()
        assert sum(prof.totals.values()) == pytest.approx(prof.total_s, rel=1e-9)

    def test_finish_without_start_is_noop(self):
        prof = PhaseProfiler()
        prof.finish()
        assert prof.total_s == 0.0
        assert prof.totals == {}


class TestReadouts:
    def test_summary_lines_mention_phases(self):
        with PhaseProfiler() as prof:
            _workload()
        text = "\n".join(phase_summary_lines(prof))
        assert "events" in text
        assert "engine" in text

    def test_empty_profile_summary(self):
        prof = PhaseProfiler()
        lines = phase_summary_lines(prof)
        assert any("no phases" in line for line in lines)

    def test_chrome_trace_is_valid_and_loadable(self, tmp_path):
        with PhaseProfiler() as prof:
            _workload()
        doc = phase_chrome_trace(prof)
        assert validate_chrome_trace(doc) == []
        # Round-trips through the writer bench profile --trace-out uses.
        path = write_trace(doc, tmp_path / "phase.json")
        assert validate_chrome_trace(json.loads(path.read_text())) == []
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert spans
        assert all(e["dur"] >= 1 for e in spans)
        assert doc["otherData"]["time_unit"] == "wall-us"
        # The phases partition the profiled window, with no obs row.
        assert {e["name"] for e in spans} <= set(PHASES)
        assert sum(e["args"]["seconds"] for e in spans) == pytest.approx(
            doc["otherData"]["total_s"], rel=0.01
        )
