"""No definition in ``src/`` exists only for the tests.

The scan parses every module under ``src/`` and lists its functions,
classes and methods.  A definition counts as used when its name appears
anywhere else in ``src/`` as a ``Name``, an ``Attribute``, an import
alias or an identifier-shaped string literal.  Its own body does not
count, nor do package ``__init__`` re-exports or the statements that
bind ``__all__``: a literal list, or the lazy-export table a package
unpacks into ``__all__, __getattr__, __dir__``, whose name strings are
not uses.
Any word match in ``benchmarks/``, ``blitzbench/``, ``examples/``,
``scripts/`` or ``.github/`` also keeps a definition.

A definition that ``tests/`` uses but nothing above does is test-only
code.  It either gains a caller, goes with the tests that cover only
it, or sits in :data:`ALLOWLIST` with the reason it stays.  Dunder
methods, ``visit_*`` methods and ``@register`` bench bodies are reached
by dispatch, not by name, and are out of scope.
"""

import ast
import functools
import re
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Set, Tuple, Union

ROOT = Path(__file__).resolve().parent.parent
KEEP_DIRS = ("benchmarks", "blitzbench", "examples", "scripts", ".github")
IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

#: ``module:qualname`` -> why the test-only definition stays.
ALLOWLIST: Dict[str, str] = {
    "repro.analysis.sarif:validate_sarif": (
        "reference: tests hold to_sarif output to the SARIF subset with it"
    ),
    "repro.core.analysis:build_deadlock_grid": (
        "Sec. III-E: builds the deadlock grid the property tests run on"
    ),
    "repro.core.analysis:classify_exchange": (
        "Sec. III-E: the property tests classify live kernel exchanges"
    ),
    "repro.core.analysis:is_local_minimum": (
        "Sec. III-E: the local-minimum tests probe live engine states"
    ),
    "repro.core.analysis:pair_error": (
        "Sec. III-E lemma; ROADMAP item 4 gives it a sanitizer caller"
    ),
    "repro.experiments.fig03_convergence:scaling_exponent": (
        "fits the cycles-vs-d exponent the Fig. 3 test bounds"
    ),
    "repro.faults.injector:FaultInjector.decisions": (
        "the draw counter the determinism-contract test reads"
    ),
    "repro.noc.router:CycleNoc.link_utilization": (
        "ROADMAP item 7 needs it to show load met the coin packets"
    ),
    "repro.report.post_process:reconstruct_power_trace": (
        "reference: Sec. V-A's power rebuild the recorded trace is checked on"
    ),
    "repro.soc.synthetic:accelerator_census": (
        "probe: tests compare the classes of generated SoCs with it"
    ),
    "repro.soc.tile:SocConfig.tiles_of_class": (
        "probe: tests pick live tiles of one class with it"
    ),
    "repro.thermal.model:ThermalGrid.steady_state": (
        "reference: the closed form the transient tests converge to"
    ),
    "repro.workloads.dag:TaskGraph.is_parallel": (
        "probe: tests check the shape of generated task graphs"
    ),
    "repro.workloads.dag:TaskGraph.max_concurrency": (
        "probe: tests check the parallelism of generated task graphs"
    ),
    "repro.workloads.production:ArrivalTrace.peak_to_mean": (
        "probe: test_deep_trough_is_diurnal reads the diurnal swing"
    ),
    "repro.workloads.scenarios:class_census": (
        "probe: tests count the classes of built workloads"
    ),
}


Definition = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef]


def _references(tree: ast.Module, *, reexports: bool) -> Dict[str, List[int]]:
    """name -> line numbers of its uses in one module.

    A statement binding ``__all__`` never counts; ``from`` imports count
    unless ``reexports`` marks the module as a package ``__init__``.
    """
    skip: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        else:
            targets = []
        exported = any(
            isinstance(t, ast.Name) and t.id == "__all__"
            for target in targets
            for t in ast.walk(target)
        )
        if exported or (reexports and isinstance(node, ast.ImportFrom)):
            skip.update(id(sub) for sub in ast.walk(node))
    refs: Dict[str, List[int]] = {}
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.alias):
            names = [node.name.rsplit(".", 1)[-1], node.asname or ""]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value] if IDENT.match(node.value) else []
        else:
            continue
        for name in filter(None, names):
            refs.setdefault(name, []).append(getattr(node, "lineno", 0))
    return refs


def _definitions(
    body: List[ast.stmt], prefix: str = ""
) -> Iterator[Tuple[str, Definition]]:
    """(qualname, node) for module-level and class-body definitions."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + node.name, node
            if isinstance(node, ast.ClassDef):
                yield from _definitions(node.body, f"{prefix}{node.name}.")


def _dispatched(node: Definition) -> bool:
    """Reached by dispatch, not by name: dunders, visitors, bench bodies."""
    name = node.name
    if name.startswith("__") and name.endswith("__") or name.startswith("visit_"):
        return True
    return any(
        isinstance(d, ast.Call) and getattr(d.func, "id", "") == "register"
        for d in node.decorator_list
    )


@functools.lru_cache(maxsize=None)
def find_test_only() -> FrozenSet[str]:
    """``module:qualname`` of every test-only definition in ``src/``."""
    src_root = ROOT / "src"
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(src_root.rglob("*.py"))
    }
    src_refs = {
        path: _references(tree, reexports=path.name == "__init__.py")
        for path, tree in trees.items()
    }
    test_names: Set[str] = set()
    for path in sorted((ROOT / "tests").rglob("*.py")):
        if "fixtures" not in path.parts:
            tree = ast.parse(path.read_text(encoding="utf-8"))
            test_names.update(_references(tree, reexports=False))
    kept_words: Set[str] = set()
    for folder in KEEP_DIRS:
        for path in sorted((ROOT / folder).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                text = path.read_text(encoding="utf-8", errors="ignore")
                kept_words.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text))

    found: Set[str] = set()
    for path, tree in trees.items():
        module = ".".join(path.relative_to(src_root).with_suffix("").parts)
        module = module[: -len(".__init__")] if path.name == "__init__.py" else module
        for qualname, node in _definitions(tree.body):
            name = node.name
            if _dispatched(node) or name in kept_words or name not in test_names:
                continue
            first = min([d.lineno for d in node.decorator_list] + [node.lineno])
            last = node.end_lineno or node.lineno
            used = any(
                not (other == path and first <= line <= last)
                for other, refs in src_refs.items()
                for line in refs.get(name, ())
            )
            if not used:
                found.add(f"{module}:{qualname}")
    return frozenset(found)


def test_no_new_test_only_code():
    unexplained = sorted(find_test_only() - set(ALLOWLIST))
    assert not unexplained, (
        "src/ definitions only tests/ use; give each a caller, delete it "
        "with the tests that cover only it, or allowlist it with a reason: "
        + ", ".join(unexplained)
    )


def test_allowlist_entries_are_still_test_only():
    stale = sorted(set(ALLOWLIST) - find_test_only())
    assert not stale, f"allowlisted but no longer test-only: {stale}"
