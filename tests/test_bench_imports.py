"""Every benchmarks/bench_*.py is a figures or full suite of repro.perf.

``bench`` subcommands import every benchmark module through
:func:`repro.perf.registry.load_builtin_suites`, so an import that ran a
simulation, installed an observability sink, or wrote files would do
that work on every ``bench list`` (and poison the fast-flag
bit-identity guarantee).  The registry is the only way a benchmark
runs: no file carries a pytest test or a script entrypoint.
"""

import pytest

import repro.obs.runtime as obs_runtime
from repro.perf.registry import (
    BENCH_DIR,
    REGISTRY,
    import_bench_file,
    load_builtin_suites,
)

BENCH_FILES = sorted(BENCH_DIR.glob("bench_*.py"))


def test_benchmark_files_exist():
    assert len(BENCH_FILES) >= 30


@pytest.mark.parametrize(
    "path", BENCH_FILES, ids=[p.stem for p in BENCH_FILES]
)
def test_imports_cleanly_without_side_effects(path):
    before = obs_runtime.sink
    module = import_bench_file(path)
    # No sink installed, no simulation scheduled at import time.
    assert obs_runtime.sink is before is None
    # Anything executable is behind a guard, never at module level.
    assert not hasattr(module, "__bench_ran__")


def test_migrated_benchmarks_register_declarations():
    # Every file declares at least one figures or full entry.
    for path in BENCH_FILES:
        import_bench_file(path)
    by_module = {}
    for name in REGISTRY.names():
        bench = REGISTRY.get(name)
        by_module.setdefault(bench.run.__module__, []).append(bench)
    for path in BENCH_FILES:
        benches = by_module.get(path.stem)
        assert benches, f"{path.name} registers no benchmark"
        for bench in benches:
            assert {"figures", "full"} & set(bench.suites), bench.name
            assert bench.description, bench.name


def test_bench_files_define_no_tests_or_entrypoints():
    for path in BENCH_FILES:
        text = path.read_text(encoding="utf-8")
        assert "def test_" not in text, path.name
        assert "def main(" not in text, path.name
        assert "__main__" not in text, path.name
    assert not (BENCH_DIR / "conftest.py").exists()


def test_builtin_suites_include_the_bench_files():
    reg = load_builtin_suites()
    figures = [b.name for b in reg.suite("figures")]
    assert len(figures) >= 28
    assert "fig03.full" in figures
    assert reg.suite("full")
    # Loading again re-imports nothing: the same declarations stand.
    assert load_builtin_suites() is reg
    assert [b.name for b in reg.suite("figures")] == figures
