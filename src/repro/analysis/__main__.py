"""``python -m repro.analysis``: run blitzlint from the command line.

Thin wrapper over the same implementation the ``blitzcoin-repro lint``
subcommand uses, so CI can invoke the linter without installing the
console script.  Only :func:`run_lint` imports the linter, so the CLI
builds its ``lint`` parser without loading it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List, Optional

from repro.analysis.findings import RULES, LintError

DEFAULT_BASELINE = "lint-baseline.json"
DEFAULT_CACHE = ".blitzlint-cache.json"


def default_lint_target() -> str:
    """The installed ``repro`` package directory (lintable from anywhere)."""
    import repro

    return str(Path(repro.__file__).parent)


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach blitzlint's arguments to ``parser`` (shared with the CLI)."""
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        help="report format",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help=f"comma-separated rule codes to run (default: all of "
        f"{', '.join(RULES)})",
    )
    parser.add_argument(
        "--exclude",
        action="append",
        default=[],
        metavar="GLOB",
        help="skip files whose path or name matches GLOB (repeatable)",
    )
    parser.add_argument(
        "--baseline",
        nargs="?",
        const=DEFAULT_BASELINE,
        default=None,
        metavar="FILE",
        help="gate only on findings absent from this baseline file "
        f"(default file: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline file from this run's findings and exit 0",
    )
    parser.add_argument(
        "--cache",
        nargs="?",
        const=DEFAULT_CACHE,
        default=None,
        metavar="FILE",
        help="memoize per-file results keyed on content hash "
        f"(default file: {DEFAULT_CACHE})",
    )


def _read_sources(findings) -> Dict[str, str]:
    """path -> content for fingerprinting; unreadable files map to ''."""
    sources: Dict[str, str] = {}
    for f in findings:
        if f.path not in sources:
            try:
                sources[f.path] = Path(f.path).read_text(encoding="utf-8")
            except OSError:
                sources[f.path] = ""
    return sources


def _emit(report: str, out: Optional[str]) -> None:
    if out is None:
        print(report, end="" if report.endswith("\n") else "\n")
        return
    out_path = Path(out)
    try:
        if out_path.parent != Path():
            out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(
            report if report.endswith("\n") else report + "\n",
            encoding="utf-8",
        )
    except OSError as exc:
        raise LintError(f"cannot write report to {out}: {exc}") from exc


def run_lint(args: argparse.Namespace) -> int:
    """Execute a lint run described by parsed arguments.

    Exit status: 0 clean (or only baselined findings), 1 findings,
    2 usage/parse/baseline/cache error (one-line diagnostic, no
    traceback).
    """
    from repro.analysis.baseline import (
        BaselineError,
        diff_against_baseline,
        load_baseline,
        write_baseline,
    )
    from repro.analysis.cache import CacheError, ResultCache
    from repro.analysis.lint import lint_paths, render_json, render_text
    from repro.analysis.sarif import render_sarif

    paths = args.paths or [default_lint_target()]
    rules: Optional[List[str]] = None
    if args.rules:
        rules = [r.strip().upper() for r in args.rules.split(",") if r.strip()]
    cache: Optional[ResultCache] = None
    try:
        if getattr(args, "cache", None):
            cache = ResultCache(Path(args.cache))
        findings = lint_paths(
            paths,
            rules=rules,
            exclude=getattr(args, "exclude", []) or [],
            cache=cache,
        )
        if cache is not None:
            cache.save()
    except (LintError, CacheError, OSError) as exc:
        print(f"blitzlint: error: {exc}", file=sys.stderr)
        return 2

    baseline_path = getattr(args, "baseline", None)
    update = getattr(args, "update_baseline", False)
    sources = (
        _read_sources(findings)
        if (baseline_path or update or args.format == "sarif")
        else {}
    )

    if update:
        target = Path(baseline_path or DEFAULT_BASELINE)
        try:
            n = write_baseline(target, findings, sources)
        except OSError as exc:
            print(
                f"blitzlint: error: cannot write baseline {target}: {exc}",
                file=sys.stderr,
            )
            return 2
        print(f"blitzlint: baseline {target} updated ({n} fingerprint(s))")
        return 0

    gated = findings
    known_count = 0
    fixed: List[str] = []
    if baseline_path:
        try:
            baseline = load_baseline(Path(baseline_path))
        except BaselineError as exc:
            print(f"blitzlint: error: {exc}", file=sys.stderr)
            return 2
        gated, known, fixed = diff_against_baseline(
            findings, baseline, sources
        )
        known_count = len(known)

    if args.format == "json":
        report = render_json(gated)
    elif args.format == "sarif":
        report = render_sarif(gated, sources=sources)
    else:
        report = render_text(gated)
    try:
        _emit(report, getattr(args, "out", None))
    except LintError as exc:
        print(f"blitzlint: error: {exc}", file=sys.stderr)
        return 2

    if baseline_path and args.format == "text":
        if known_count:
            print(
                f"blitzlint: {known_count} baselined finding(s) not shown",
                file=sys.stderr,
            )
        for hint in fixed:
            print(
                f"blitzlint: baselined finding no longer present: {hint}",
                file=sys.stderr,
            )
    return 1 if gated else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="blitzlint",
        description="BlitzCoin repo-specific static analysis "
        "(determinism / coin-conservation rules)",
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
