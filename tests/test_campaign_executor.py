"""Tests for campaign execution: determinism, caching, and resume.

The load-bearing property is bit-identity — fanning units over worker
processes must produce byte-for-byte the results of a serial run,
including under injected faults and with the runtime sanitizer armed.
The cache/resume tests pin the transparency contract: a warm store
means zero re-executed units, a partial store means exactly the
missing ones, and a lying executor is caught by the verification pass.
"""

from concurrent.futures import Executor, ProcessPoolExecutor

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaign import (
    CampaignError,
    CampaignSpec,
    CampaignStore,
    canonical_json,
    run_campaign,
)
from repro.campaign.executor import execute_unit
from repro.campaign.spec import encode_config
from repro.core.config import plain_one_way, preferred_embodiment
from repro.core.runner import trial_seeds
from repro.obs.runtime import observing


def convergence_spec(**overrides):
    kwargs = dict(
        name="exec-test",
        kind="convergence",
        trials=2,
        base_seed=3,
        axes=(("mode", ("1-way", "4-way")),),
        params={"d": 3, "threshold": 1.5},
        config=encode_config(plain_one_way()),
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


def fingerprint(run):
    return canonical_json(run.results)


class TestBitIdentity:
    def test_parallel_matches_serial(self, tmp_path):
        spec = convergence_spec()
        serial = run_campaign(spec, workers=1)
        parallel = run_campaign(spec, workers=4)
        assert fingerprint(parallel) == fingerprint(serial)
        assert parallel.verified >= 1

    def test_parallel_matches_serial_with_fault_plan(self):
        # Fault injection draws from a seeded decision stream; worker
        # fan-out must reproduce it exactly (drop + mid-run tile kill).
        spec = CampaignSpec(
            name="exec-faults",
            kind="convergence",
            trials=2,
            base_seed=7,
            axes=(("rate", (0.0, 0.05)),),
            params={
                "d": 4,
                "threshold": 1.5,
                "max_cycles": 500_000,
                "kill_tile": 8,
                "kill_at": 100,
            },
            config=encode_config(preferred_embodiment()),
        )
        serial = run_campaign(spec, workers=1)
        parallel = run_campaign(spec, workers=2)
        assert fingerprint(parallel) == fingerprint(serial)
        # The kill actually happened: coins were reconciled somewhere.
        assert any(r["coins_reconciled"] > 0 for r in serial.results)

    def test_parallel_matches_serial_under_sanitizer(self, monkeypatch):
        # The invariant sanitizer must neither fire nor perturb results
        # when armed inside worker processes.
        spec = convergence_spec(trials=1)
        serial = run_campaign(spec, workers=1)
        monkeypatch.setenv("BLITZCOIN_SANITIZE", "1")
        sanitized = run_campaign(spec, workers=2)
        assert fingerprint(sanitized) == fingerprint(serial)

    def test_centralized_kind_parallel_matches_serial(self):
        spec = CampaignSpec(
            name="exec-centralized",
            kind="centralized",
            trials=2,
            base_seed=7,
            axes=(("rate", (0.0, 0.05)),),
            params={"d": 4, "max_cycles": 200_000},
        )
        serial = run_campaign(spec, workers=1)
        parallel = run_campaign(spec, workers=2)
        assert fingerprint(parallel) == fingerprint(serial)

    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        d=st.sampled_from((2, 3)),
        trials=st.integers(min_value=1, max_value=2),
        base_seed=st.integers(min_value=0, max_value=50),
        seed_rule=st.sampled_from(("stride", "spawn")),
    )
    def test_property_parallel_is_serial(self, d, trials, base_seed, seed_rule):
        spec = convergence_spec(
            trials=trials,
            base_seed=base_seed,
            seed_rule=seed_rule,
            params={"d": d, "threshold": 1.5},
        )
        serial = run_campaign(spec, workers=1)
        with ProcessPoolExecutor(max_workers=2) as pool:
            parallel = run_campaign(spec, executor=pool)
        assert fingerprint(parallel) == fingerprint(serial)


class TestCacheAndResume:
    def test_second_run_is_pure_cache_hit(self, tmp_path):
        spec = convergence_spec()
        store = CampaignStore(tmp_path)
        first = run_campaign(spec, store=store)
        assert (first.cached, first.executed) == (0, first.total)
        second = run_campaign(spec, store=store)
        assert (second.cached, second.executed) == (second.total, 0)
        assert fingerprint(second) == fingerprint(first)

    def test_resume_executes_only_missing_units(self, tmp_path):
        spec = convergence_spec()
        store = CampaignStore(tmp_path)
        full = run_campaign(spec, store=store)
        # Simulate an interrupted campaign: two artifacts never landed.
        victims = spec.units()[1:3]
        for unit in victims:
            store.unit_path(spec, unit).unlink()
        resumed = run_campaign(spec, store=store)
        assert resumed.executed == len(victims)
        assert resumed.cached == full.total - len(victims)
        assert fingerprint(resumed) == fingerprint(full)
        assert store.scan(spec).complete

    def test_fresh_discards_cache(self, tmp_path):
        spec = convergence_spec()
        store = CampaignStore(tmp_path)
        run_campaign(spec, store=store)
        rerun = run_campaign(spec, store=store, fresh=True)
        assert rerun.cached == 0
        assert rerun.executed == rerun.total

    def test_corrupted_artifact_fails_loudly(self, tmp_path):
        from repro.campaign import StoreError

        spec = convergence_spec()
        store = CampaignStore(tmp_path)
        run_campaign(spec, store=store)
        store.unit_path(spec, spec.units()[0]).write_text("{torn")
        with pytest.raises(StoreError, match="campaign clean"):
            run_campaign(spec, store=store)

    def test_manifest_records_completion(self, tmp_path):
        spec = convergence_spec()
        store = CampaignStore(tmp_path)
        run_campaign(spec, store=store)
        doc = store.load_manifest(spec)
        assert doc["complete"] is True
        assert doc["executed"] == 4
        assert store.results_path(spec).exists()

    def test_progress_callback_sees_every_unit(self, tmp_path):
        spec = convergence_spec()
        store = CampaignStore(tmp_path)
        run_campaign(spec, store=store)
        seen = []
        run_campaign(
            spec,
            store=store,
            progress=lambda done, total, unit, cached: seen.append(
                (done, total, cached)
            ),
        )
        assert len(seen) == 4
        assert all(cached for _, _, cached in seen)


class _LyingExecutor(Executor):
    """An executor that corrupts every result it returns."""

    def map(self, fn, *iterables, **kwargs):
        for args in zip(*iterables):
            result = fn(*args)
            result["cycles"] = -1  # bit-flip the payload
            yield result

    def submit(self, fn, *args, **kwargs):  # pragma: no cover - unused
        raise NotImplementedError

    def shutdown(self, wait=True, **kwargs):
        pass


class TestVerification:
    def test_lying_executor_is_caught(self):
        spec = convergence_spec(trials=1)
        with pytest.raises(CampaignError, match="determinism violation"):
            run_campaign(spec, executor=_LyingExecutor(), verify_units=1)

    def test_verification_can_be_disabled(self):
        spec = convergence_spec(trials=1)
        run = run_campaign(spec, executor=_LyingExecutor(), verify_units=0)
        assert run.verified == 0
        assert all(r["cycles"] == -1 for r in run.results)


class TestObsIntegration:
    def test_counters_account_for_every_unit(self, tmp_path):
        spec = convergence_spec()
        store = CampaignStore(tmp_path)
        with observing() as session:
            run_campaign(spec, store=store)
        reg = session.registry
        assert reg.value("campaign.units_total", campaign=spec.name) == 4
        assert reg.value("campaign.units_executed", campaign=spec.name) == 4
        assert reg.value("campaign.units_remaining", campaign=spec.name) == 0
        with observing() as session:
            run_campaign(spec, store=store)
        assert (
            session.registry.value(
                "campaign.units_cached", campaign=spec.name
            )
            == 4
        )


class TestGrouping:
    def test_grouped_results_follow_sweep_order(self):
        spec = convergence_spec()
        run = run_campaign(spec)
        groups = run.grouped()
        assert len(groups) == 2
        assert all(len(g) == spec.trials for g in groups)
        assert groups[0] == run.point_results(0)
        # Group contents line up with direct in-process execution.
        unit = run.units[0]
        assert canonical_json(groups[0][0]) == canonical_json(
            execute_unit(spec, unit)
        )


class TestRunTrialsExecutor:
    """The seed ladder under the legacy run_trials API."""

    def test_trial_seeds_ladder(self):
        assert trial_seeds(3, base_seed=3, stride=1000) == [3000, 3001, 3002]
