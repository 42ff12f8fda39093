"""Import only what runs.

Every package ``__init__`` re-exports lazily (``repro.lazy_exports``),
and ``src/`` imports each name from the module that defines it, so an
entry point loads only the layers its simulation uses.  Each check
runs in a fresh interpreter: this one has imported everything already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import List

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: Layers a Monte-Carlo convergence trial never runs.
NOT_IN_TRIALS = (
    "repro.soc",
    "repro.dvfs",
    "repro.power",
    "repro.workloads",
    "repro.baselines",
    "repro.analysis.lint",
    "repro.analysis.passes",
    "repro.obs.export",
    "repro.obs.monitor",
    "repro.campaign",
    "repro.serve",
    "repro.fuzz",
    "repro.experiments",
    "repro.report",
    "repro.perf",
)

#: The linter: only ``lint`` runs it.
LINTER = (
    "repro.analysis.baseline",
    "repro.analysis.cache",
    "repro.analysis.dataflow",
    "repro.analysis.lint",
    "repro.analysis.passes",
    "repro.analysis.sarif",
)

#: Imports and inputs of the simulation jobs: the three configurations
#: of the Monte-Carlo trials, and the 3x3 SoC with its WL-Par graph.
JOB_INPUTS = """
from repro.core.config import plain_four_way, plain_one_way, preferred_embodiment
from repro.core.runner import run_convergence_trial
from repro.experiments.soc_runs import run_soc_workload
from repro.soc.pm import PMKind
from repro.soc.presets import soc_3x3
from repro.workloads.apps import autonomous_vehicle_parallel

configs = [plain_one_way(), plain_four_way(), preferred_embodiment()]
soc, graph = soc_3x3(), autonomous_vehicle_parallel()
schemes = [PMKind.BLITZCOIN, PMKind.BLITZCOIN_CENTRAL, PMKind.ROUND_ROBIN]
"""

JOBS = """
for config in configs:
    assert run_convergence_trial(4, config, 0).converged
for kind in schemes:
    assert run_soc_workload(soc, graph, kind, 120.0).task_finish_cycles
"""


#: Checks every package's ``__all__`` in the interpreter it runs in and
#: prints the ``package:name`` entries that fail.
EXPORTS = """
import importlib, json, pkgutil, sys, types
import repro

MISSING = object()

def binds(module, name, value):
    return getattr(sys.modules.get(module), name, MISSING) is value

packages = [repro] + [
    importlib.import_module(info.name)
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
]
bad = []
for pkg in packages:
    for name in pkg.__all__:
        value = getattr(pkg, name)
        if isinstance(value, types.ModuleType):
            ok = sys.modules.get(f"{pkg.__name__}.{name}") is value
        elif isinstance(value, (type, types.FunctionType)):
            ok = binds(value.__module__, name, value)
        else:  # a constant: some module of the package defines it
            ok = any(
                binds(m, name, value)
                for m in list(sys.modules)
                if m == pkg.__name__ or m.startswith(pkg.__name__ + ".")
            )
        if not ok or name not in dir(pkg):
            bad.append(f"{pkg.__name__}:{name}")
print(json.dumps([len(packages), bad]))
"""


def run_fresh(script: str) -> str:
    """The last stdout line of ``script`` run by a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def loaded_by(setup: str, then: str = "") -> List[str]:
    """``repro`` modules a fresh interpreter imports running ``setup``,
    or, given ``then``, the ones it imports running ``then`` after it."""
    snapshot = "{m for m in sys.modules if m.split('.')[0] == 'repro'}"
    script = "\n".join([
        "import json, sys",
        setup,
        f"before = {snapshot}" if then else "before = set()",
        then,
        f"print(json.dumps(sorted({snapshot} - before)))",
    ])
    return json.loads(run_fresh(script))


def within(modules: List[str], packages) -> List[str]:
    return [
        m for m in modules
        if any(m == p or m.startswith(p + ".") for p in packages)
    ]


def test_import_repro_loads_no_submodule():
    assert loaded_by("import repro") == ["repro"]


def test_trial_entry_point_loads_only_the_simulation_layers():
    loaded = loaded_by("import repro.core.runner")
    assert "repro.core.runner" in loaded
    assert within(loaded, NOT_IN_TRIALS) == []


def test_runtime_slots_load_only_their_own_layers():
    """The kernel, the fabric and the engine import both on every run."""
    loaded = loaded_by("import repro.faults.runtime, repro.obs.runtime")
    assert within(loaded, ("repro.obs", "repro.faults")) == [
        m for m in loaded if m != "repro"
    ]
    assert within(loaded, ("repro.obs.export", "repro.obs.monitor")) == []


def test_soc_entry_point_loads_no_other_driver_or_harness():
    loaded = loaded_by("import repro.experiments.soc_runs")
    assert within(loaded, ("repro.experiments",)) == [
        "repro.experiments",
        "repro.experiments.soc_runs",
    ]
    harness = LINTER + ("repro.campaign", "repro.serve", "repro.fuzz", "repro.report")
    assert within(loaded, harness) == []


def test_cli_loads_the_linter_only_to_lint():
    assert within(loaded_by("import repro.cli"), LINTER) == []


def test_jobs_import_nothing():
    """No import cost moves into a timed simulation job."""
    assert loaded_by(JOB_INPUTS, JOBS) == []


def test_every_export_resolves_to_its_defining_object():
    """``__all__`` of every package: each name resolves, is listed by
    ``dir()``, and is the very object its defining module binds."""
    n_packages, bad = json.loads(run_fresh(EXPORTS))
    assert n_packages >= 20
    assert bad == []


def test_unknown_name_is_an_attribute_error():
    import repro.obs

    with pytest.raises(AttributeError, match="no_such_name"):
        repro.obs.no_such_name
    assert not hasattr(repro.obs, "no_such_name")
