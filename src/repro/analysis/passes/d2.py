"""D2 — RNG-taint: nondeterministic values must not reach sim state.

Where D1 flags entropy *sources* syntactically (and only in a fixed
scope list), D2 tracks the *values* those sources produce through
assignments, arithmetic and calls with a taint dataflow analysis, and
flags any flow into a reproducibility-critical sink anywhere in the
tree:

* a ``seed`` keyword / a ``repro.sim.rng`` seeding call,
* an event-scheduling delay (``<sim>.schedule(delay, ...)``),
* a hash input (``hash()``, ``hashlib.*`` — cache keys, fingerprints),
* simulator state: attribute/subscript writes inside the simulation
  packages.

Taint kinds: entropy calls (``random``, unseeded numpy RNG, wall clock,
``id``, ``uuid``, ``secrets``) and *iteration order* — a list built by
iterating a set or ``.keys()`` view carries hash order even though its
elements are deterministic.  ``sorted()`` launders order taint (that is
the sanctioned fix) but no call launders value entropy.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.analysis.astutil import (
    Context,
    RNG_MODULE,
    dotted_name,
    entropy_source,
    in_scope,
    unordered_iterable,
)
from repro.analysis.dataflow.cfg import build_cfg, functions_in
from repro.analysis.dataflow.lattice import Taint, TaintEnv
from repro.analysis.dataflow.solver import solve_forward
from repro.analysis.findings import Finding

__all__ = ["check_d2"]

#: Packages whose object state is simulator state: a tainted attribute
#: write there embeds entropy in the simulation itself.
SIM_STATE_SCOPES = (
    "repro.core",
    "repro.noc",
    "repro.sim",
    "repro.faults",
)

#: Seeding entry points of repro.sim.rng plus generic seed setters.
_SEED_SINK_FUNCS = {"spawn_rng", "rng_for", "seed", "derive_seed"}

#: Calls whose result does not depend on argument *order* taint.
_ORDER_INSENSITIVE = {
    "sorted", "len", "sum", "min", "max", "set", "frozenset", "any", "all",
}

_HASH_FUNCS = {"sha1", "sha224", "sha256", "sha384", "sha512", "md5",
               "blake2b", "blake2s"}


def _strip_order(taints: FrozenSet[Taint]) -> FrozenSet[Taint]:
    return frozenset(t for t in taints if t.kind != "iter-order")


class _TaintMachine:
    """Expression evaluation + statement transfer for the taint domain."""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.sim_state = in_scope(ctx.module, SIM_STATE_SCOPES)
        self.findings: List[Finding] = []
        self._seen: Set[Tuple[int, int, str]] = set()
        self.report = False

    # ------------------------------------------------------------ findings
    def _emit(self, node: ast.AST, message: str) -> None:
        if not self.report:
            return
        key = (node.lineno, node.col_offset, message)
        if key in self._seen:
            return
        self._seen.add(key)
        self.findings.append(
            Finding(self.ctx.path, node.lineno, node.col_offset, "D2",
                    message)
        )

    @staticmethod
    def _describe(taints: FrozenSet[Taint]) -> str:
        srcs = sorted(str(t) for t in taints)
        return "; ".join(srcs[:3]) + (" …" if len(srcs) > 3 else "")

    # ---------------------------------------------------------- expressions
    def eval(self, node: Optional[ast.expr], env: TaintEnv) -> FrozenSet[Taint]:
        if node is None or isinstance(node, (ast.Constant, ast.Lambda)):
            return frozenset()
        if isinstance(node, ast.Name):
            return env.get(node.id)
        if isinstance(node, ast.Attribute):
            dotted = dotted_name(node)
            if dotted is not None:
                return env.get(dotted)
            return self.eval(node.value, env)
        if isinstance(node, ast.Call):
            self.check_call_sinks(node, env)
            src = entropy_source(node)
            taints: FrozenSet[Taint] = frozenset()
            if src is not None:
                kind = "wall-clock" if src.startswith("wall-clock") else "rng"
                taints |= {Taint(kind, node.lineno, src)}
            arg_taints: FrozenSet[Taint] = frozenset()
            for arg in node.args:
                arg_taints |= self.eval(arg, env)
            for kw in node.keywords:
                arg_taints |= self.eval(kw.value, env)
            fn = dotted_name(node.func)
            callee = (fn or "").split(".")[-1]
            if callee in _ORDER_INSENSITIVE:
                arg_taints = _strip_order(arg_taints)
            # method calls: the receiver's taint propagates too
            if isinstance(node.func, ast.Attribute):
                arg_taints |= self.eval(node.func.value, env)
            return taints | arg_taints
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            taints: FrozenSet[Taint] = frozenset()
            inner = env.copy()
            for gen in node.generators:
                reason = unordered_iterable(gen.iter)
                gen_taints = self.eval(gen.iter, inner)
                if reason is not None:
                    gen_taints |= {Taint(
                        "iter-order", node.lineno,
                        f"hash-ordered iteration over {reason}",
                    )}
                for name in _target_names(gen.target):
                    inner.set(name, gen_taints)
                taints |= gen_taints
                for cond in gen.ifs:
                    taints |= self.eval(cond, inner)
            taints |= self.eval(node.elt, inner)
            return taints
        if isinstance(node, (ast.SetComp, ast.DictComp)):
            # The result is itself unordered: element values keep their
            # taint, but hash order of the *source* is laundered.
            taints = frozenset()
            inner = env.copy()
            for gen in node.generators:
                gen_taints = self.eval(gen.iter, inner)
                for name in _target_names(gen.target):
                    inner.set(name, gen_taints)
                taints |= gen_taints
            if isinstance(node, ast.DictComp):
                taints |= self.eval(node.key, inner)
                taints |= self.eval(node.value, inner)
            else:
                taints |= self.eval(node.elt, inner)
            return _strip_order(taints)
        # Generic: union over child expressions (BinOp, BoolOp, Compare,
        # IfExp, Tuple, List, Dict, JoinedStr, Subscript, Starred, ...).
        taints = frozenset()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                taints |= self.eval(child, env)
            elif isinstance(child, ast.comprehension):  # pragma: no cover
                taints |= self.eval(child.iter, env)
        return taints

    # ---------------------------------------------------------------- sinks
    def check_call_sinks(self, node: ast.Call, env: TaintEnv) -> None:
        fn = dotted_name(node.func) or ""
        callee = fn.split(".")[-1]
        # seed sinks
        for kw in node.keywords:
            if kw.arg == "seed":
                taints = self.eval(kw.value, env)
                if taints:
                    self._emit(
                        kw.value,
                        "nondeterministic value flows into `seed=`: "
                        + self._describe(taints),
                    )
        if callee in _SEED_SINK_FUNCS:
            for arg in node.args:
                taints = self.eval(arg, env)
                if taints:
                    self._emit(
                        arg,
                        f"nondeterministic value flows into `{fn}()`: "
                        + self._describe(taints),
                    )
        # event-scheduling delay sink
        if callee == "schedule" and node.args:
            taints = self.eval(node.args[0], env)
            if taints:
                self._emit(
                    node.args[0],
                    "nondeterministic delay flows into `schedule()`: "
                    + self._describe(taints),
                )
        # hash sinks
        if fn == "hash" or fn.startswith("hashlib.") or (
            callee in _HASH_FUNCS and fn.split(".")[0] == "hashlib"
        ):
            for arg in node.args:
                taints = self.eval(arg, env)
                if taints:
                    self._emit(
                        arg,
                        f"nondeterministic value flows into `{fn}()` "
                        "(unstable hash/cache key): "
                        + self._describe(taints),
                    )

    def _check_state_write(
        self, target: ast.expr, taints: FrozenSet[Taint]
    ) -> None:
        if not (self.sim_state and taints):
            return
        if isinstance(target, ast.Attribute):
            self._emit(
                target,
                f"nondeterministic value stored into simulator state "
                f"`{dotted_name(target) or target.attr}`: "
                + self._describe(taints),
            )
        elif isinstance(target, ast.Subscript) and isinstance(
            target.value, (ast.Attribute, ast.Name)
        ):
            base = dotted_name(target.value) or "container"
            if isinstance(target.value, ast.Attribute):
                self._emit(
                    target,
                    f"nondeterministic value stored into simulator state "
                    f"`{base}[...]`: " + self._describe(taints),
                )

    # ----------------------------------------------------------- statements
    def transfer_stmt(self, stmt: ast.stmt, env: TaintEnv) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # nested definitions analyzed separately
        if isinstance(stmt, ast.Assign):
            taints = self.eval(stmt.value, env)
            for target in stmt.targets:
                self._assign(target, stmt.value, taints, env)
            return
        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            taints = self.eval(stmt.value, env)
            self._assign(stmt.target, stmt.value, taints, env)
            return
        if isinstance(stmt, ast.AugAssign):
            taints = self.eval(stmt.value, env) | self.eval(
                _as_load(stmt.target), env
            )
            self._assign(stmt.target, stmt.value, taints, env)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            taints = self.eval(stmt.iter, env)
            reason = unordered_iterable(stmt.iter)
            if reason is not None:
                taints |= {Taint(
                    "iter-order", stmt.iter.lineno,
                    f"hash-ordered iteration over {reason}",
                )}
            for name in _target_names(stmt.target):
                env.set(name, taints)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                taints = self.eval(item.context_expr, env)
                if item.optional_vars is not None:
                    for name in _target_names(item.optional_vars):
                        env.set(name, taints)
            return
        if isinstance(stmt, ast.Try):
            return  # structure handled by the CFG; headers carry no exprs
        if isinstance(stmt, ast.excepthandler):
            return
        if isinstance(stmt, ast.If):
            self.eval(stmt.test, env)
            return
        if isinstance(stmt, ast.While):
            self.eval(stmt.test, env)
            return
        # Expression statements, returns, asserts, deletes, raises:
        # evaluate for sink checks inside calls.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self.eval(child, env)

    def _assign(
        self,
        target: ast.expr,
        value: ast.expr,
        taints: FrozenSet[Taint],
        env: TaintEnv,
    ) -> None:
        if isinstance(target, ast.Name):
            env.set(target.id, taints)
        elif isinstance(target, (ast.Tuple, ast.List)):
            # Elementwise when shapes line up, else smear.
            if isinstance(value, (ast.Tuple, ast.List)) and len(
                value.elts
            ) == len(target.elts):
                for t_el, v_el in zip(target.elts, value.elts):
                    self._assign(t_el, v_el, self.eval(v_el, env), env)
            else:
                for t_el in target.elts:
                    self._assign(t_el, value, taints, env)
        elif isinstance(target, ast.Attribute):
            self._check_state_write(target, taints)
            dotted = dotted_name(target)
            if dotted is not None:
                env.set(dotted, taints)
        elif isinstance(target, ast.Subscript):
            self._check_state_write(target, taints)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, value, taints, env)


def _target_names(target: ast.expr) -> List[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        names: List[str] = []
        for el in target.elts:
            names.extend(_target_names(el))
        return names
    if isinstance(target, ast.Starred):
        return _target_names(target.value)
    return []


def _as_load(target: ast.expr) -> ast.expr:
    """Reuse an assignment target as a read (taint lookup only)."""
    return target


def _analyze_unit(
    ctx: Context, body_owner: "ast.AST", machine: _TaintMachine
) -> None:
    cfg = build_cfg(body_owner)  # type: ignore[arg-type]

    def transfer(block, state: TaintEnv) -> TaintEnv:
        out = state.copy()
        for stmt in block.stmts:
            machine.transfer_stmt(stmt, out)
        return out

    try:
        entry = solve_forward(
            cfg,
            TaintEnv(),
            transfer,
            lambda a, b: a.join(b),
            lambda s: s.copy(),
        )
    except RecursionError:  # pragma: no cover - pathological nesting
        return
    # Reporting sweep: replay each block once from its fixpoint entry
    # state with finding emission enabled.
    machine.report = True
    for bid in sorted(cfg.blocks):
        state = entry.get(bid)
        if state is None:
            continue
        out = state.copy()
        for stmt in cfg.blocks[bid].stmts:
            machine.transfer_stmt(stmt, out)
    machine.report = False


class _ModuleBody:
    """Duck-typed function: lets module-level code reuse build_cfg."""

    def __init__(self, tree: ast.Module) -> None:
        self.body = tree.body


def check_d2(ctx: Context) -> Iterator[Finding]:
    if ctx.module == RNG_MODULE:
        return
    machine = _TaintMachine(ctx)
    _analyze_unit(ctx, _ModuleBody(ctx.tree), machine)
    for unit in functions_in(ctx.tree):
        _analyze_unit(ctx, unit.node, machine)
    yield from machine.findings
