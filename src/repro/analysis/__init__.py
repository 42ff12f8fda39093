"""Static analysis (blitzlint) and the runtime invariant sanitizer.

``repro.analysis.lint`` enforces the repo's determinism and
coin-conservation coding rules; v2 adds a dataflow engine
(``repro.analysis.dataflow``: CFG + worklist fixpoint + lattices)
powering the D2/U2/C2/P1 rule families, a SARIF 2.1.0 exporter
(``repro.analysis.sarif``), baseline gating
(``repro.analysis.baseline``) and a content-hash result cache
(``repro.analysis.cache``).  ``repro.analysis.sanitize`` checks the
same invariants dynamically, event by event, when
``BLITZCOIN_SANITIZE=1`` (or ``BlitzCoinConfig.sanitize``) is set.
See ``docs/STATIC_ANALYSIS.md``.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "baseline": [
            "BaselineError",
            "diff_against_baseline",
            "load_baseline",
            "write_baseline",
        ],
        "cache": ["CacheError", "ResultCache"],
        "lint": [
            "LINT_VERSION",
            "RULES",
            "Finding",
            "LintError",
            "lint_file",
            "lint_paths",
            "lint_source",
            "render_json",
            "render_text",
        ],
        "sanitize": [
            "Sanitizer",
            "SanitizerError",
            "TraceEntry",
            "attach_sanitizer",
            "sanitize_enabled",
        ],
        "sarif": ["render_sarif", "to_sarif", "validate_sarif"],
    },
)
