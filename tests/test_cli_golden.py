"""Golden outputs of the experiment commands, run in-process.

Each case pins a command's exit code, its stdout (with the working
directory replaced by ``<tmp>``) and the sha256 of every file it
writes, against ``tests/fixtures/cli_golden.json``.  The CLI may be
refactored freely, but no valid invocation may change what it prints
or writes.

``events.jsonl`` is left out: its packet span ids come from a
process-global counter, so two identical runs in one process write
different files.

Intentional output changes regenerate the fixture with::

    pytest tests/test_cli_golden.py --update-golden
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.cli import main

FIXTURE = Path(__file__).parent / "fixtures" / "cli_golden.json"

#: Files a command writes whose bytes are not reproducible in-process.
UNPINNED = {"events.jsonl"}

CASES = {
    "convergence": ["convergence", "--dim", "4", "--trials", "2"],
    "convergence-4way-obs": [
        "convergence", "--dim", "4", "--trials", "1", "--variant", "4way",
        "--obs",
    ],
    "faults-rate": ["faults", "--dim", "4", "--trials", "1", "--rate", "0.05"],
    "faults-kill": [
        "faults", "--dim", "4", "--trials", "1", "--kill-tile", "8",
    ],
    "soc-run": ["soc-run", "--scheme", "C-RR", "--budget", "90"],
    "trace-convergence": ["trace", "convergence", "--dim", "3"],
    "trace-soc": ["trace", "soc"],
    "report-convergence": [
        "report", "convergence", "--dim", "3", "--trials", "2",
        "--html", "conv.html",
    ],
    "report-soc": ["report", "soc", "--scheme", "TS"],
    "report-fig16": ["report", "fig16"],
}


def _run_case(argv, tmp_path, capsys):
    rc = main(list(argv))
    out = capsys.readouterr().out.replace(str(tmp_path), "<tmp>")
    files = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(
            path.read_bytes()
        ).hexdigest()
        for path in sorted(tmp_path.rglob("*"))
        if path.is_file() and path.name not in UNPINNED
    }
    return {"argv": list(argv), "rc": rc, "stdout": out, "files": files}


@pytest.fixture(scope="module")
def golden(request):
    """The fixture's cases; with ``--update-golden``, a dict the cases
    fill in and that is written back once they have all run."""
    if request.config.getoption("--update-golden"):
        cases = {}
        yield cases
        FIXTURE.write_text(json.dumps(cases, indent=2, sort_keys=True) + "\n")
        return
    assert FIXTURE.exists(), (
        f"missing golden fixture {FIXTURE}; generate it with "
        f"pytest {__file__} --update-golden"
    )
    yield json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_golden(name, golden, update_golden, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    actual = _run_case(CASES[name], tmp_path, capsys)
    if update_golden:
        golden[name] = actual
        return
    assert actual == golden[name], (
        f"output of `repro {' '.join(CASES[name])}` changed; if intentional, "
        f"rerun with --update-golden and review the fixture diff"
    )


def test_golden_cases_all_tracked(update_golden):
    """Every case in the fixture is still run, and no case is missing."""
    if update_golden:
        pytest.skip("fixture is being regenerated")
    assert set(json.loads(FIXTURE.read_text())) == set(CASES)
