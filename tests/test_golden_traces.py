"""Golden-trace regression tests for the figure experiments.

These pin the *exact* seeded outcomes (convergence cycles and coin
packets) of the Fig. 3 / Fig. 4 small configurations, capped trials in
both exchange modes (per-tile thermal caps plus a neighborhood hotspot
cap, so the clamped, aborted and spilled exchanges run), and one SoC run
(the 3x3 SoC's parallel autonomous-vehicle workload at 120 mW) under
every power-management scheme: its makespan, task finish cycles,
response times and a digest of every per-tile frequency, power and
activity trace.  Any change to the engine, NoC, RNG streams, event
ordering, PM adapters or power-curve solves that shifts a single cycle
or frequency shows up here as a diff against
``tests/fixtures/golden/*.json`` — bit-level determinism is a core
claim of the reproduction (and the precondition for the fault layer's
"null plan changes nothing" test).

Intentional behavior changes regenerate the fixtures with::

    pytest tests/test_golden_traces.py --update-golden
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.baselines.tokensmart import run_tokensmart_trial
from repro.core.config import (
    ExchangeMode,
    plain_four_way,
    plain_one_way,
    preferred_embodiment,
)
from repro.core.runner import run_convergence_trial
from repro.experiments.soc_runs import run_soc_workload
from repro.soc.pm import PMKind
from repro.soc.presets import soc_3x3
from repro.workloads.apps import autonomous_vehicle_parallel

GOLDEN_DIR = Path(__file__).parent / "fixtures" / "golden"
THRESHOLD = 1.5
TRIALS = 3


def _fig03_case(technique: str, d: int):
    """Fig. 3 small config: seeded 1-way / 4-way trials at one d."""
    config = plain_one_way() if technique == "1-way" else plain_four_way()
    trials = []
    for k in range(TRIALS):
        seed = 3 * 1000 + k  # fig03's base_seed=3 convention
        r = run_convergence_trial(d, config, seed=seed, threshold=THRESHOLD)
        trials.append(
            {
                "seed": seed,
                "converged": r.converged,
                "cycles": r.cycles,
                "packets": r.packets,
                "exchanges": r.exchanges,
            }
        )
    return {"experiment": "fig03", "technique": technique, "d": d,
            "threshold": THRESHOLD, "trials": trials}


def _fig04_case(d: int):
    """Fig. 4 small config: BC (preferred) vs TokenSmart at one d."""
    config = preferred_embodiment()
    bc, ts = [], []
    for k in range(TRIALS):
        seed = 4 * 1000 + k  # fig04's base_seed=4 convention
        r = run_convergence_trial(d, config, seed=seed, threshold=THRESHOLD)
        bc.append(
            {
                "seed": seed,
                "converged": r.converged,
                "cycles": r.cycles,
                "packets": r.packets,
            }
        )
        t = run_tokensmart_trial(d, seed, threshold=THRESHOLD)
        ts.append(
            {"seed": seed, "converged": t.converged, "cycles": t.cycles}
        )
    return {"experiment": "fig04", "d": d, "threshold": THRESHOLD,
            "BC": bc, "TS": ts}


def _capped_case(mode: ExchangeMode):
    """Seeded d=4 and d=6 trials under thermal and hotspot caps.

    The preferred embodiment in ``mode``, with hard caps on three tiles
    and a neighborhood hotspot cap that binds on some exchanges.  Capped
    runs need not converge, so a short horizon bounds each trial.
    """
    trials = []
    for d, seeds in ((4, (5000, 5001)), (6, (5000,))):
        n = d * d
        config = dataclasses.replace(
            preferred_embodiment(),
            mode=mode,
            thermal_caps={0: 6, n // 2: 12, n - 1: 20},
            hotspot_neighborhood_cap=160,
        )
        for seed in seeds:
            r = run_convergence_trial(
                d, config, seed=seed, threshold=THRESHOLD, max_cycles=3000
            )
            trials.append({"d": d, "seed": seed, **dataclasses.asdict(r)})
    return {"experiment": "capped", "mode": mode.value,
            "threshold": THRESHOLD, "trials": trials}


def _trace_digest(trace) -> str:
    """sha256 over a recorder trace's ``(time, repr(value))`` samples."""
    h = hashlib.sha256()
    for time, value in trace:
        h.update(f"{time} {value!r}\n".encode())
    return h.hexdigest()


def _soc_case(budget_mw: float):
    """The 3x3 SoC's WL-Par workload under each PM scheme."""
    runs = {}
    for kind in PMKind:
        r = run_soc_workload(
            soc_3x3(), autonomous_vehicle_parallel(), kind, budget_mw
        )
        runs[kind.value] = {
            "makespan_cycles": r.makespan_cycles,
            "task_finish_cycles": r.task_finish_cycles,
            "response_times_cycles": r.response_times_cycles,
            "traces": {
                name: _trace_digest(r.recorder[name])
                for name in r.recorder.names()
            },
        }
    return {"experiment": "soc", "soc": "3x3", "workload": "av-par",
            "budget_mw": budget_mw, "runs": runs}


CASES = {
    "capped_1way": lambda: _capped_case(ExchangeMode.ONE_WAY),
    "capped_4way": lambda: _capped_case(ExchangeMode.FOUR_WAY),
    "fig03_1way_d3": lambda: _fig03_case("1-way", 3),
    "fig03_1way_d4": lambda: _fig03_case("1-way", 4),
    "fig03_4way_d3": lambda: _fig03_case("4-way", 3),
    "fig03_4way_d4": lambda: _fig03_case("4-way", 4),
    "fig04_d4": lambda: _fig04_case(4),
    "soc3x3_avpar_120mw": lambda: _soc_case(120.0),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_trace(name, update_golden):
    path = GOLDEN_DIR / f"{name}.json"
    actual = CASES[name]()
    if update_golden:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(actual, indent=2, sort_keys=True) + "\n")
        return
    assert path.exists(), (
        f"missing golden fixture {path}; generate it with "
        f"pytest {__file__} --update-golden"
    )
    expected = json.loads(path.read_text())
    assert actual == expected, (
        f"seed-exact trace for {name} changed; if intentional, rerun "
        f"with --update-golden and review the fixture diff"
    )


def test_golden_fixtures_all_tracked():
    """Every golden fixture on disk corresponds to a known case."""
    on_disk = {p.stem for p in GOLDEN_DIR.glob("*.json")}
    assert on_disk == set(CASES)
