"""Campaign scaling: parallel speedup and cache economics.

The campaign layer's pitch is twofold: fan seeded trials over worker
processes without changing a single bit of any result, and never run
the same (config, params, seed) unit twice.  This benchmark measures
both — wall-clock speedup of parallel vs. serial execution at 1/2/4/8
workers on a cold cache, then a warm-cache rerun that must execute
nothing at all.  EXPERIMENTS.md records the measured numbers.
"""
# Benchmarks measure wall time by design; the D1 wall-clock rule is
# for simulation code, not for the harness timing it.
# blitzlint: disable-file=D1

import json
import os
import tempfile
import time
from pathlib import Path

from repro.campaign import CampaignSpec, CampaignStore, run_campaign
from repro.campaign.spec import canonical_json, encode_config
from repro.core.config import plain_one_way
from repro.perf import register

WORKER_COUNTS = (1, 2, 4, 8)


def _spec():
    # Heavy enough per unit that process fan-out beats pool overhead:
    # 12 convergence trials across two techniques and two mesh sizes.
    return CampaignSpec(
        name="bench-scaling",
        kind="convergence",
        trials=3,
        base_seed=3,
        seed_stride=1000,
        axes=(("mode", ("1-way", "4-way")), ("d", (4, 6))),
        params={"threshold": 1.5},
        config=encode_config(plain_one_way()),
    )


def _results_fingerprint(run):
    return canonical_json([json.loads(canonical_json(r)) for r in run.results])


@register("campaign.scaling", suites=("full",))
def campaign_scaling():
    """Serial vs 1/2/4/8-worker cold runs of one campaign, then a warm rerun."""
    spec = _spec()
    with tempfile.TemporaryDirectory(prefix="bench-campaign-") as scratch:
        root = Path(scratch)
        serial_store = CampaignStore(root / "serial")
        t0 = time.perf_counter()
        serial = run_campaign(spec, store=serial_store, workers=1)
        serial_time = time.perf_counter() - t0
        assert serial.executed == serial.total

        times = {}
        for workers in WORKER_COUNTS:
            store = CampaignStore(root / f"w{workers}")
            t0 = time.perf_counter()
            run = run_campaign(spec, store=store, workers=workers)
            times[workers] = time.perf_counter() - t0
            # Bit-identity: the worker fan-out must not change any result.
            assert _results_fingerprint(run) == _results_fingerprint(serial)
            assert run.executed == run.total

        # Warm cache: the rerun must execute zero units, at any worker count.
        t0 = time.perf_counter()
        warm = run_campaign(spec, store=serial_store, workers=4)
        warm_time = time.perf_counter() - t0
        assert warm.executed == 0
        assert warm.cached == warm.total
        assert _results_fingerprint(warm) == _results_fingerprint(serial)

    # The speedup claim needs real cores behind the workers; on the
    # 4-core CI runner, 4 workers must at least halve the wall clock.
    cores = os.cpu_count() or 1
    if cores >= 4:
        assert serial_time / times[4] >= 2.0

    # The cache claim holds everywhere: a warm rerun is pure reads.
    assert warm_time < serial_time
    return {
        "units_total": serial.total,
        "units_executed": serial.executed,
        "warm_units_cached": warm.cached,
        "warm_units_executed": warm.executed,
    }
