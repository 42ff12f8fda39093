"""P1 — parallel-safety: code the campaign executor fans out must fork.

``repro.campaign`` ships units to a ``ProcessPoolExecutor`` and
asserts parallel ≡ serial bit-identity.  That guarantee dies the
moment worker code depends on mutable process-global state, closes
over something a spawn-start child cannot pickle, or forks around live
OS resources.  P1 polices the packages whose functions are submitted
to the executor (``repro.campaign`` itself and the experiment drivers
it runs):

* **module-level mutable state** — a module-scope ``list``/``dict``/
  ``set`` that some function in the same module mutates: workers each
  mutate their own copy and the parent never sees any of it;
* **unpicklable submissions** — a ``lambda`` or locally-defined
  closure passed to ``Executor.submit`` / ``Executor.map`` /
  ``Process(target=…)``: breaks under the spawn start method and
  silently shares closure state under fork;
* **fork-unsafe patterns** — ``os.fork()``, explicitly selecting the
  ``fork`` start method, creating pools/threads/locks or opening
  files at module import time (inherited mid-state by every worker),
  and module-level RNG objects (every worker replays the same stream).

One P1 check is **scope-free** (it applies to every module, not just
the parallel scopes): direct attribute writes to the scoped runtime
flags ``repro.obs.runtime.sink`` and ``repro.faults.runtime.injector``.
Both are served per-context from a ContextVar behind module
``__getattr__``; assigning the module attribute directly bypasses the
scoping entirely — the write is process-visible, shadows every
context's slot, and breaks the install/uninstall pairing the parallel
serve lanes depend on.  Only ``install()`` / ``uninstall()`` and their
context managers may change what a context resolves.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from repro.analysis.astutil import Context, dotted_name, in_scope
from repro.analysis.dataflow.cfg import functions_in
from repro.analysis.findings import Finding

__all__ = ["PARALLEL_SCOPES", "check_p1"]

#: Packages whose functions run inside campaign executor workers.
PARALLEL_SCOPES = ("repro.campaign", "repro.experiments")

_MUTATING_METHODS = {
    "append", "extend", "add", "update", "setdefault", "insert",
    "remove", "discard", "pop", "popitem", "clear",
}

_SUBMIT_METHODS = {"submit", "map", "apply_async", "imap", "imap_unordered"}

#: Module-scope constructor calls that capture OS state across fork.
_FORK_UNSAFE_CTORS = {
    "ProcessPoolExecutor", "ThreadPoolExecutor", "Pool", "Thread",
    "Lock", "RLock", "Semaphore", "BoundedSemaphore", "Condition",
    "Event", "Queue", "Manager", "open",
}

_RNG_CTORS = {"default_rng", "Generator", "RandomState"}

#: Scoped-runtime flags that must never be assigned directly: the
#: module attribute is a ContextVar-backed fast flag, and only the
#: runtime's own install()/uninstall() may change what a context sees.
_SCOPED_RUNTIME_ATTRS = {
    "repro.obs.runtime.sink": "install()/uninstall()/observing()",
    "repro.faults.runtime.injector": "install()/uninstall()/injecting()",
}

#: The modules that legitimately manage those attributes.
_SCOPED_RUNTIME_MODULES = {"repro.obs.runtime", "repro.faults.runtime"}


def _import_aliases(tree: ast.Module) -> dict:
    """Local name -> the dotted module/object it was imported as."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    aliases[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    aliases[root] = root
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                bound = alias.asname or alias.name
                aliases[bound] = f"{node.module}.{alias.name}"
    return aliases


def _scoped_runtime_writes(tree: ast.Module) -> Iterator[tuple]:
    """(node, full_dotted, fix_hint) for direct scoped-flag writes."""
    aliases = _import_aliases(tree)
    for node in ast.walk(tree):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = node.targets
        for target in targets:
            if not isinstance(target, ast.Attribute):
                continue
            dotted = dotted_name(target)
            if dotted is None or "." not in dotted:
                continue
            head, rest = dotted.split(".", 1)
            full = f"{aliases.get(head, head)}.{rest}"
            if full in _SCOPED_RUNTIME_ATTRS:
                yield node, full, _SCOPED_RUNTIME_ATTRS[full]


def _module_level_mutables(tree: ast.Module) -> dict:
    """name -> def-site node for module-scope mutable container bindings."""
    out = {}
    for stmt in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None:
            continue
        mutable = isinstance(value, (ast.List, ast.Dict, ast.Set,
                                     ast.ListComp, ast.DictComp,
                                     ast.SetComp))
        if isinstance(value, ast.Call):
            callee = (dotted_name(value.func) or "").split(".")[-1]
            mutable = callee in {"list", "dict", "set", "defaultdict",
                                 "OrderedDict", "Counter", "deque"}
        if not mutable:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                out[target.id] = stmt
    return out


def _mutation_sites(tree: ast.Module, names: Set[str]) -> dict:
    """name -> first in-function mutation node for module globals."""
    sites = {}
    for unit in functions_in(tree):
        for node in ast.walk(unit.node):
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ) and node.func.attr in _MUTATING_METHODS and isinstance(
                node.func.value, ast.Name
            ) and node.func.value.id in names:
                sites.setdefault(node.func.value.id, node)
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for t in targets:
                    if isinstance(t, ast.Subscript) and isinstance(
                        t.value, ast.Name
                    ) and t.value.id in names:
                        sites.setdefault(t.value.id, node)
                    elif (
                        isinstance(node, ast.AugAssign)
                        and isinstance(t, ast.Name)
                        and t.id in names
                    ):
                        sites.setdefault(t.id, node)
    return sites


def _local_callables(tree: ast.Module) -> Set[str]:
    """Names of functions defined *inside* other functions (closures)."""
    return {
        u.node.name for u in functions_in(tree) if u.depth > 0
    }


def check_p1(ctx: Context) -> Iterator[Finding]:
    # ---- scope-free: direct writes to the scoped runtime flags
    if ctx.module not in _SCOPED_RUNTIME_MODULES:
        for node, full, fix in _scoped_runtime_writes(ctx.tree):
            yield Finding(
                ctx.path, node.lineno, node.col_offset, "P1",
                f"direct write to `{full}` bypasses the scoped runtime: "
                "the attribute is a ContextVar-backed fast flag, and an "
                "assignment is process-visible instead of per-context; "
                f"use {fix}",
            )

    if not in_scope(ctx.module, PARALLEL_SCOPES):
        return
    tree = ctx.tree

    # ---- module-level mutable state mutated from functions
    mutables = _module_level_mutables(tree)
    if mutables:
        mutated = _mutation_sites(tree, set(mutables))
        for name, def_site in sorted(mutables.items()):
            if name not in mutated:
                continue  # read-only tables are fine
            mut = mutated[name]
            yield Finding(
                ctx.path, def_site.lineno, def_site.col_offset, "P1",
                f"module-level mutable `{name}` is mutated inside a "
                f"function (line {mut.lineno}); executor workers each "
                "mutate a private copy, so results silently diverge "
                "between serial and parallel runs",
            )

    closures = _local_callables(tree)
    module_funcs = {u.node.name for u in functions_in(tree) if u.depth == 0}

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = dotted_name(node.func) or ""
        callee = dotted.split(".")[-1]

        # ---- unpicklable submissions
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _SUBMIT_METHODS
            and node.args
        ):
            fn_arg = node.args[0]
            if isinstance(fn_arg, ast.Lambda):
                yield Finding(
                    ctx.path, fn_arg.lineno, fn_arg.col_offset, "P1",
                    f"lambda passed to `.{node.func.attr}()`: lambdas "
                    "cannot be pickled to executor workers; use a "
                    "module-level function (optionally functools.partial)",
                )
            elif isinstance(fn_arg, ast.Name) and fn_arg.id in closures \
                    and fn_arg.id not in module_funcs:
                yield Finding(
                    ctx.path, fn_arg.lineno, fn_arg.col_offset, "P1",
                    f"locally-defined closure `{fn_arg.id}` passed to "
                    f"`.{node.func.attr}()`: closures cannot be pickled "
                    "to executor workers; hoist it to module level",
                )
        if callee == "Process":
            for kw in node.keywords:
                if kw.arg == "target" and isinstance(
                    kw.value, (ast.Lambda, ast.Name)
                ):
                    if isinstance(kw.value, ast.Lambda) or (
                        isinstance(kw.value, ast.Name)
                        and kw.value.id in closures
                        and kw.value.id not in module_funcs
                    ):
                        yield Finding(
                            ctx.path, kw.value.lineno,
                            kw.value.col_offset, "P1",
                            "unpicklable `target=` for Process: use a "
                            "module-level function",
                        )

        # ---- fork-unsafe calls (anywhere)
        if dotted == "os.fork":
            yield Finding(
                ctx.path, node.lineno, node.col_offset, "P1",
                "`os.fork()` in executor-adjacent code: forking a "
                "process with live simulator state is not reproducible;"
                " use the campaign executor instead",
            )
        elif callee == "set_start_method" and node.args:
            arg = node.args[0]
            if isinstance(arg, ast.Constant) and arg.value == "fork":
                yield Finding(
                    ctx.path, node.lineno, node.col_offset, "P1",
                    "explicitly selecting the `fork` start method "
                    "inherits parent state mid-run; campaign workers "
                    "must be start-method agnostic",
                )

    # ---- fork-unsafe module-import-time constructions
    for stmt in tree.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.Expr)):
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                dotted = dotted_name(node.func) or ""
                callee = dotted.split(".")[-1]
                if callee in _FORK_UNSAFE_CTORS:
                    yield Finding(
                        ctx.path, node.lineno, node.col_offset, "P1",
                        f"`{callee}(...)` at module import time: every "
                        "executor worker re-creates (or fork-inherits) "
                        "this OS resource mid-state; construct it "
                        "inside the function that uses it",
                    )
                elif callee in _RNG_CTORS and (
                    "random" in dotted or callee == "RandomState"
                ):
                    yield Finding(
                        ctx.path, node.lineno, node.col_offset, "P1",
                        "module-level RNG object: every executor worker "
                        "replays the identical stream and serial vs "
                        "parallel draw order diverges; derive per-unit "
                        "generators via repro.sim.rng instead",
                    )
