"""blitzlint: the repo-specific static-analysis pass.

The reproduction's value rests on two properties the paper proves in
hardware: exchanges are *exactly* coin-conserving (Section III-B /
Fig. 2) and a run is bit-reproducible from its seed alone.  Both are
easy to break with ordinary Python idioms (a stray ``random.random()``,
a float division in the exchange arithmetic, an event handler poking a
coin register directly), so this module walks the AST of every module
under ``repro`` and enforces the coding rules that keep them true.

Rule catalog (see ``docs/STATIC_ANALYSIS.md`` for the full rationale):

``D1`` determinism (syntactic)
    No wall-clock or unseeded randomness anywhere outside
    ``repro.sim.rng``, and no iteration over unordered ``set`` /
    ``dict.keys()`` results in the event-scheduling packages.
``D2`` rng-taint (dataflow)
    Values *derived from* entropy sources (unseeded randomness, wall
    clock, ``id()``, hash-ordered iteration) must not flow into sim
    state, seeds, scheduling delays, or hashes — anywhere.
``C1`` coin integrality (syntactic)
    No float literals, ``/`` true division, or float ``==``/``!=``
    comparisons in ``repro.core.coins`` or the delta-computation
    helpers of ``repro.core.engine``.
``C2`` coin-flow (dataflow)
    Every control-flow path through a coin-moving function must be
    delta-balanced (Σhas + in_flight + lost_pending conserved).
``S1`` state discipline (syntactic)
    Coin registers may only be mutated by the engine's blessed
    mutation points, never directly from a packet/event handler.
``U1`` units (syntactic)
    Public functions in ``repro.core`` / ``repro.noc`` whose name or
    docstring mentions time must state the unit (cycles or seconds).
``U2`` units-flow (dataflow)
    Unit tags (mW/J/cycles/coins/…) propagate through assignments and
    arithmetic; mixed-unit adds and unit-contradicting returns flag.
``P1`` parallel-safety (syntactic+scope)
    No module-level mutable state, unpicklable executor submissions,
    or fork-unsafe patterns in campaign-executed packages.

Suppression: append ``# blitzlint: disable=<code>[,<code>...]`` (or
``disable=all``) to the offending line, or put the same comment alone
on the line directly above it.  A whole intentional-deviation file
(e.g. a benchmark that *measures* wall time) may carry
``# blitzlint: disable-file=<code>[,<code>...]``.  Files outside
``src/repro`` may pin their effective module identity for rule scoping
with a ``# blitzlint: scope=<dotted.module>`` comment on any line.
"""

from __future__ import annotations

import ast
import fnmatch
import json
import re
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.astutil import (
    Context as _Context,
    RNG_MODULE,
    SEEDED_RNG_CTORS as _SEEDED_RNG_CTORS,
    WALL_CLOCK_CALLS as _WALL_CLOCK_CALLS,
    build_function_map as _build_function_map,
    dotted_name as _dotted,
    in_scope as _in_scope,
    unordered_iterable as _unordered_iterable,
)
from repro.analysis.findings import Finding, LintError, RULES
from repro.analysis.passes.c2 import check_c2
from repro.analysis.passes.d2 import check_d2
from repro.analysis.passes.p1 import check_p1
from repro.analysis.passes.u2 import check_u2

__all__ = [
    "Finding",
    "LintError",
    "LINT_VERSION",
    "RULES",
    "lint_file",
    "lint_paths",
    "lint_source",
    "render_json",
    "render_text",
]

#: Bumped whenever any rule's behavior changes; part of the result-cache
#: key so stale cached findings can never survive a linter upgrade.
LINT_VERSION = 3

_DISABLE_RE = re.compile(
    r"#\s*blitzlint:\s*disable=([A-Za-z0-9_,\s]+|all)"
)
_DISABLE_FILE_RE = re.compile(
    r"#\s*blitzlint:\s*disable-file=([A-Za-z0-9_,\s]+|all)"
)
_SCOPE_RE = re.compile(r"#\s*blitzlint:\s*scope=([A-Za-z0-9_.]+)")

# ---------------------------------------------------------------- D1 tables
#: Packages whose event-scheduling code must not iterate unordered sets.
#: repro.faults is included: fault decisions are event-scheduling inputs,
#: so hash-order iteration there would break run reproducibility too.
#: repro.campaign is included: unit enumeration and seed derivation feed
#: the cache keys and the parallel/serial bit-identity guarantee.
#: repro.obs.monitor and repro.report are included: monitors run on the
#: sink path during simulation, and reports/diffs must be byte-stable
#: artifacts — hash-order iteration in either would break bit-identity.
#: repro.serve is included: job results, stream frames, and stored
#: scenario artifacts must be byte-deterministic for the dedupe and
#: streamed-equals-stored contracts to hold.
_ORDERED_ITERATION_SCOPES = (
    "repro.core",
    "repro.noc",
    "repro.sim",
    "repro.faults",
    "repro.campaign",
    "repro.obs.monitor",
    "repro.report",
    "repro.perf",
    "repro.serve",
)

# ---------------------------------------------------------------- C1 tables
_C1_WHOLE_MODULES = ("repro.core.coins",)
#: Delta-computation helpers of the engine: the code between receiving a
#: status and emitting/applying a delta must stay integral.
_C1_ENGINE_FUNCS = {
    "_apply_delta",
    "_serve_one_way",
    "_collect_four_way",
    "_on_update",
    "apply_and_reply",
    "apply_and_update",
    "check_conservation",
}
_C1_ENGINE_MODULE = "repro.core.engine"

# ---------------------------------------------------------------- S1 tables
#: repro.campaign is in scope: the campaign layer aggregates results
#: and must never reach into engine/tile coin state directly; the
#: monitor and report layers likewise observe but never mutate.
#: repro.serve is in scope for the same reason: the service observes
#: runs through the sink and the store, never through coin state.
_S1_SCOPES = (
    "repro.core",
    "repro.noc",
    "repro.campaign",
    "repro.obs.monitor",
    "repro.report",
    "repro.perf",
    "repro.serve",
)
#: The only functions allowed to write a coin register directly: the
#: engine's single delta-application point, the activity-edge API, and
#: object construction.
_S1_BLESSED_FUNCS = {"_apply_delta", "set_max", "__init__", "__post_init__"}

# ---------------------------------------------------------------- U1 tables
#: v2 widened U1 beyond core/noc: the simulator kernel and trace APIs
#: (cycles) and the thermal/power models (seconds) are where a missing
#: unit statement actually bites — cycles-vs-seconds confusion at the
#: sim/physics boundary is the classic reproduction bug.
_U1_SCOPES = (
    "repro.core",
    "repro.noc",
    "repro.sim",
    "repro.power",
    "repro.thermal",
)
_U1_TRIGGERS = re.compile(
    r"\b(time|latency|delay|duration|timeout|interval|period)\b", re.I
)
_U1_UNITS = re.compile(
    r"\b(cycle|cycles|second|seconds|sec|us|ms|ns|hz|mhz|ghz|"
    r"microsecond|microseconds|millisecond|milliseconds)\b",
    re.I,
)


# ===================================================================== rules
def _check_d1(ctx: _Context) -> Iterator[Finding]:
    if ctx.module == RNG_MODULE:
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    yield Finding(
                        ctx.path, node.lineno, node.col_offset, "D1",
                        "import of stdlib `random`: all randomness must "
                        "come from a seeded repro.sim.rng generator",
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                yield Finding(
                    ctx.path, node.lineno, node.col_offset, "D1",
                    "import from stdlib `random`: all randomness must "
                    "come from a seeded repro.sim.rng generator",
                )
        elif isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            if dotted is None:
                continue
            parts = dotted.split(".")
            if len(parts) >= 2 and tuple(parts[-2:]) in _WALL_CLOCK_CALLS:
                yield Finding(
                    ctx.path, node.lineno, node.col_offset, "D1",
                    f"wall-clock call `{dotted}()` breaks seed-only "
                    "reproducibility; derive times from Simulator.now",
                )
            elif len(parts) >= 3 and parts[-2] == "random" and parts[-3] in (
                "np", "numpy"
            ):
                fn = parts[-1]
                if fn in _SEEDED_RNG_CTORS:
                    continue
                if fn == "default_rng" and (node.args or node.keywords):
                    continue
                yield Finding(
                    ctx.path, node.lineno, node.col_offset, "D1",
                    f"`{dotted}()` uses numpy's global/unseeded RNG; "
                    "spawn a generator via repro.sim.rng instead",
                )
    if not _in_scope(ctx.module, _ORDERED_ITERATION_SCOPES):
        return
    for node in ast.walk(ctx.tree):
        iters: List[ast.expr] = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iters = [node.iter]
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            iters = [gen.iter for gen in node.generators]
        for it in iters:
            reason = _unordered_iterable(it)
            if reason is not None:
                yield Finding(
                    ctx.path, it.lineno, it.col_offset, "D1",
                    f"iteration over {reason} in event-scheduling code; "
                    "iterate a list or wrap in sorted() so event order "
                    "cannot depend on hash order",
                )


def _is_float_node(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "float"
    ):
        return True
    return False


def _check_c1(ctx: _Context) -> Iterator[Finding]:
    whole = ctx.module in _C1_WHOLE_MODULES
    engine = ctx.module == _C1_ENGINE_MODULE
    if not (whole or engine):
        return
    for node in ast.walk(ctx.tree):
        if engine and ctx.func_of.get(node) not in _C1_ENGINE_FUNCS:
            continue
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield Finding(
                ctx.path, node.lineno, node.col_offset, "C1",
                f"float literal {node.value!r} in coin arithmetic; "
                "exchange math must be exact integer arithmetic",
            )
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            yield Finding(
                ctx.path, node.lineno, node.col_offset, "C1",
                "true division `/` in coin arithmetic; use `//` "
                "(scaled integer) so deltas stay integral",
            )
        elif isinstance(node, ast.AugAssign) and isinstance(
            node.op, ast.Div
        ):
            yield Finding(
                ctx.path, node.lineno, node.col_offset, "C1",
                "true division `/=` in coin arithmetic; use `//=` so "
                "coin counts stay integral",
            )
        elif isinstance(node, ast.Compare) and any(
            isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops
        ):
            operands = [node.left, *node.comparators]
            if any(_is_float_node(o) for o in operands):
                yield Finding(
                    ctx.path, node.lineno, node.col_offset, "C1",
                    "float equality comparison in coin arithmetic; "
                    "compare exact integers instead",
                )


def _coin_register_target(target: ast.expr) -> Optional[str]:
    """Return a description if ``target`` writes a coin register."""
    if not isinstance(target, ast.Attribute):
        return None
    if target.attr in ("has", "max"):
        base = target.value
        if isinstance(base, ast.Attribute) and base.attr == "coins":
            return f"`{_dotted(target) or target.attr}`"
    if target.attr == "coins":
        return f"`{_dotted(target) or 'coins'}`"
    return None


def _check_s1(ctx: _Context) -> Iterator[Finding]:
    if not _in_scope(ctx.module, _S1_SCOPES):
        return
    for node in ast.walk(ctx.tree):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            desc = _coin_register_target(target)
            if desc is None:
                continue
            func = ctx.func_of.get(node, "")
            if func in _S1_BLESSED_FUNCS:
                continue
            yield Finding(
                ctx.path, node.lineno, node.col_offset, "S1",
                f"direct write to coin register {desc} in `{func or 'module scope'}`; "
                "coin state may only change through the engine's "
                "_apply_delta / set_max mutation points",
            )


def _check_u1(ctx: _Context) -> Iterator[Finding]:
    if not _in_scope(ctx.module, _U1_SCOPES):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name.startswith("_"):
            continue
        doc = ast.get_docstring(node) or ""
        name_words = node.name.replace("_", " ")
        mentions_time = bool(
            _U1_TRIGGERS.search(name_words) or _U1_TRIGGERS.search(doc)
        )
        if not mentions_time:
            continue
        if not _U1_UNITS.search(doc):
            yield Finding(
                ctx.path, node.lineno, node.col_offset, "U1",
                f"public function `{node.name}` mentions time but its "
                "docstring does not state the unit (cycles or seconds)",
            )


_CHECKS = {
    "D1": _check_d1,
    "D2": check_d2,
    "C1": _check_c1,
    "C2": check_c2,
    "S1": _check_s1,
    "U1": _check_u1,
    "U2": check_u2,
    "P1": check_p1,
}


# ================================================================ front end
def _module_name_for(path: Path) -> str:
    """Map a file path to its dotted module name under ``repro``.

    Files outside a ``repro`` package root get an empty module name (only
    the globally scoped D1/D2 checks apply) unless they carry a
    ``# blitzlint: scope=...`` pragma.
    """
    parts = list(path.with_suffix("").parts)
    if "repro" in parts:
        idx = len(parts) - 1 - parts[::-1].index("repro")
        mod_parts = parts[idx:]
        if mod_parts[-1] == "__init__":
            mod_parts = mod_parts[:-1]
        return ".".join(mod_parts)
    return ""


def _parse_codes(raw: str) -> Set[str]:
    if raw.strip() == "all":
        return set(RULES)
    return {c.strip().upper() for c in raw.split(",") if c.strip()}


def _comment_lines(source: str) -> Iterator[Tuple[int, str, bool]]:
    """Yield (lineno, comment text, standalone?) for real comment tokens.

    Tokenizing (rather than regex-scanning raw lines) keeps pragma text
    inside string literals inert — test files embed lint snippets as
    strings and must not re-scope or suppress their *own* findings.
    Falls back to a conservative line scan if tokenization fails.
    """
    import io
    import tokenize

    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                standalone = tok.line[: tok.start[1]].strip() == ""
                yield tok.start[0], tok.string, standalone
    except (tokenize.TokenError, IndentationError, SyntaxError):
        for lineno, line in enumerate(source.splitlines(), start=1):
            if "#" in line:
                idx = line.index("#")
                yield lineno, line[idx:], line[:idx].strip() == ""


def _suppressions(
    source: str,
) -> Tuple[Dict[int, Set[str]], Optional[str], Set[str]]:
    """(per-line suppressed codes, scope override, whole-file codes).

    A ``disable=`` pragma on a line suppresses that line; the same
    pragma *standalone* on a comment-only line also suppresses the
    next line (for statements too long to carry a trailing comment).
    """
    suppressed: Dict[int, Set[str]] = {}
    scope: Optional[str] = None
    file_codes: Set[str] = set()
    for lineno, comment, standalone in _comment_lines(source):
        fm = _DISABLE_FILE_RE.search(comment)
        if fm:
            file_codes |= _parse_codes(fm.group(1))
        m = _DISABLE_RE.search(comment)
        if m and not fm:
            codes = _parse_codes(m.group(1))
            suppressed.setdefault(lineno, set()).update(codes)
            if standalone:
                # standalone pragma: also covers the following line
                suppressed.setdefault(lineno + 1, set()).update(codes)
        s = _SCOPE_RE.search(comment)
        if s:
            scope = s.group(1)
    return suppressed, scope, file_codes


def lint_source(
    source: str,
    path: str = "<string>",
    *,
    module: Optional[str] = None,
    rules: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Lint one source string; ``module`` overrides path-derived scoping."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise LintError(f"{path}: syntax error: {exc}") from exc
    suppressed, scope, file_codes = _suppressions(source)
    if module is None:
        module = scope or _module_name_for(Path(path))
    ctx = _Context(
        path=path,
        module=module,
        tree=tree,
        func_of=_build_function_map(tree),
    )
    selected = list(rules) if rules is not None else list(_CHECKS)
    unknown = [r for r in selected if r not in _CHECKS]
    if unknown:
        raise LintError(f"unknown rule code(s): {', '.join(unknown)}")
    findings: List[Finding] = []
    for code in selected:
        for f in _CHECKS[code](ctx):
            if f.code in file_codes:
                continue
            if f.code in suppressed.get(f.line, set()):
                continue
            findings.append(f)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings


def lint_file(
    path: Path, *, rules: Optional[Sequence[str]] = None
) -> List[Finding]:
    """Lint one Python file."""
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise LintError(f"cannot read {path}: {exc}") from exc
    return lint_source(source, str(path), rules=rules)


def _iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    for p in paths:
        if p.is_dir():
            yield from sorted(p.rglob("*.py"))
        elif p.suffix == ".py":
            yield p
        else:
            raise LintError(f"not a Python file or directory: {p}")


def _excluded(path: Path, patterns: Sequence[str]) -> bool:
    text = path.as_posix()
    return any(
        fnmatch.fnmatch(text, pat) or fnmatch.fnmatch(path.name, pat)
        for pat in patterns
    )


def lint_paths(
    paths: Sequence[str],
    *,
    rules: Optional[Sequence[str]] = None,
    exclude: Sequence[str] = (),
    cache: Optional["ResultCache"] = None,
) -> List[Finding]:
    """Lint every ``*.py`` file under the given files/directories.

    ``exclude`` holds fnmatch globs applied to the posix path and the
    bare filename.  ``cache``, when given, is consulted per file keyed
    on content hash + rule selection + linter version (see
    ``repro.analysis.cache``).
    """
    resolved = [Path(p) for p in paths]
    missing = [p for p in resolved if not p.exists()]
    if missing:
        raise LintError(
            f"no such path(s): {', '.join(str(p) for p in missing)}"
        )
    findings: List[Finding] = []
    for f in _iter_python_files(resolved):
        if _excluded(f, exclude):
            continue
        if cache is not None:
            try:
                source = f.read_text(encoding="utf-8")
            except OSError as exc:
                raise LintError(f"cannot read {f}: {exc}") from exc
            key = cache.key_for(source, rules)
            hit = cache.get(str(f), key)
            if hit is not None:
                findings.extend(hit)
                continue
            result = lint_source(source, str(f), rules=rules)
            cache.put(str(f), key, result)
            findings.extend(result)
        else:
            findings.extend(lint_file(f, rules=rules))
    return findings


# ================================================================= renderers
def render_text(findings: Sequence[Finding]) -> str:
    """Human-readable one-line-per-finding report."""
    lines = [
        f"{f.path}:{f.line}:{f.col}: {f.code} [{RULES[f.code]}] {f.message}"
        for f in findings
    ]
    lines.append(
        f"blitzlint: {len(findings)} finding(s)"
        if findings
        else "blitzlint: clean"
    )
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    """Stable machine-readable report (schema version 1)."""
    return json.dumps(
        {
            "version": 1,
            "tool": "blitzlint",
            "count": len(findings),
            "findings": [f.to_dict() for f in findings],
        },
        indent=2,
    )


# Imported late to avoid a cycle (cache stores Finding objects).
from repro.analysis.cache import ResultCache  # noqa: E402  (cycle guard)
