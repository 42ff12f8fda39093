"""U2 — units-flow: propagate unit tags and flag unit-unsafe math.

U1 makes public APIs *declare* their unit in the docstring; U2 makes
the arithmetic *respect* units.  Unit tags enter the analysis from two
places — identifier suffix conventions (``budget_mw``, ``base_j``,
``hop_cycles``, ``f_hz`` …) and U1 docstring declarations of functions
defined in the same module — and propagate through assignments,
``+``/``-``, ``min``/``max``/``sum``/``abs`` and comparisons via a
forward dataflow over each function's CFG.

Findings:

* **mixed-unit arithmetic** — adding/subtracting/comparing two values
  whose inferred units differ (watts + joules, mW + W, cycles + us);
* **unit-dropping assignment** — binding a value of one unit to a name
  whose suffix declares another (``total_mw = energy_j``);
* **unit-contradicting return** — a function whose docstring declares
  exactly one unit returning a value inferred to a different one.

Multiplication/division produce *derived* units and intentionally drop
to unknown; unknown never triggers a finding — only two *confidently*
conflicting tags do.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.astutil import Context, dotted_name, in_scope
from repro.analysis.dataflow.cfg import build_cfg, functions_in
from repro.analysis.dataflow.lattice import UnitEnv
from repro.analysis.dataflow.solver import solve_forward
from repro.analysis.findings import Finding

__all__ = ["UNIT_SCOPES", "check_u2", "unit_of_identifier"]

#: Packages whose arithmetic mixes clock domains and power/energy math.
UNIT_SCOPES = (
    "repro.core",
    "repro.noc",
    "repro.power",
    "repro.thermal",
)

#: identifier suffix token -> canonical unit tag
_SUFFIX_UNITS: Dict[str, str] = {
    "mw": "mW", "uw": "uW", "w": "W", "kw": "kW", "watts": "W",
    "j": "J", "mj": "mJ", "uj": "uJ", "joules": "J",
    "cycles": "cycles", "cyc": "cycles",
    "coins": "coins",
    "us": "us", "ns": "ns", "ms": "ms", "sec": "s", "secs": "s",
    "seconds": "s",
    "hz": "Hz", "khz": "kHz", "mhz": "MHz", "ghz": "GHz",
}

#: Short tokens only count as *suffixes* (``power_w`` yes, bare ``w`` no);
#: word-like tokens may also be the whole name (``cycles``, ``coins``).
_WHOLE_NAME_OK = {"cycles", "coins", "watts", "joules", "seconds"}

_DIMENSION: Dict[str, str] = {
    "mW": "power", "uW": "power", "W": "power", "kW": "power",
    "J": "energy", "mJ": "energy", "uJ": "energy",
    "cycles": "time-cycles",
    "coins": "coins",
    "us": "time-wall", "ns": "time-wall", "ms": "time-wall",
    "s": "time-wall",
    "Hz": "frequency", "kHz": "frequency", "MHz": "frequency",
    "GHz": "frequency",
    "K/W": "thermal-resistance",
}

#: docstring word -> canonical unit, for U1-declaration harvesting.
_DOC_UNIT_WORDS: Dict[str, str] = {
    "mw": "mW", "milliwatt": "mW", "milliwatts": "mW",
    "watt": "W", "watts": "W",
    "joule": "J", "joules": "J", "mj": "mJ",
    "cycle": "cycles", "cycles": "cycles",
    "coin": "coins", "coins": "coins",
    "us": "us", "microsecond": "us", "microseconds": "us",
    "ms": "ms", "millisecond": "ms", "milliseconds": "ms",
    "ns": "ns", "nanosecond": "ns", "nanoseconds": "ns",
    "second": "s", "seconds": "s",
    "hz": "Hz", "khz": "kHz", "mhz": "MHz", "ghz": "GHz",
}

_DOC_TOKEN_RE = re.compile(r"[A-Za-z]+")

#: Calls that preserve the unit of their (uniform-unit) arguments.
_UNIT_PRESERVING = {"min", "max", "abs", "sum", "round", "int", "float",
                    "sorted"}


def unit_of_identifier(name: str) -> Optional[str]:
    """Unit tag from a naming convention, or None."""
    low = name.lower()
    if low.endswith("_k_per_w") or low.endswith("k_per_w"):
        return "K/W"
    if low.endswith("_per_cycle") or "_per_" in low:
        return None  # derived rates are untracked
    tokens = low.split("_")
    last = tokens[-1]
    unit = _SUFFIX_UNITS.get(last)
    if unit is None:
        return None
    if len(tokens) == 1 and last not in _WHOLE_NAME_OK:
        return None
    return unit


def _docstring_unit(doc: Optional[str]) -> Optional[str]:
    """The single unit a docstring declares, or None if 0 or several."""
    if not doc:
        return None
    units: Set[str] = set()
    for tok in _DOC_TOKEN_RE.findall(doc.lower()):
        u = _DOC_UNIT_WORDS.get(tok)
        if u is not None:
            units.add(u)
    if len(units) == 1:
        return next(iter(units))
    return None


def _module_fn_units(tree: ast.Module) -> Dict[str, str]:
    """name -> docstring-declared unit, for same-module call results."""
    out: Dict[str, str] = {}
    for unit in functions_in(tree):
        declared = _docstring_unit(ast.get_docstring(unit.node))
        if declared is not None:
            out.setdefault(unit.node.name, declared)
    return out


class _UnitMachine:
    def __init__(self, ctx: Context, fn_units: Dict[str, str]) -> None:
        self.ctx = ctx
        self.fn_units = fn_units
        self.findings: List[Finding] = []
        self._seen: Set[Tuple[int, int, str]] = set()
        self.report = False
        self.declared: Optional[str] = None  # enclosing fn docstring unit

    def _emit(self, node: ast.AST, message: str) -> None:
        if not self.report:
            return
        key = (node.lineno, node.col_offset, message)
        if key in self._seen:
            return
        self._seen.add(key)
        self.findings.append(
            Finding(self.ctx.path, node.lineno, node.col_offset, "U2",
                    message)
        )

    # ---------------------------------------------------------- expressions
    def eval(self, node: Optional[ast.expr], env: UnitEnv) -> Optional[str]:
        if node is None or isinstance(node, ast.Constant):
            return None
        if isinstance(node, ast.Name):
            return env.get(node.id) or unit_of_identifier(node.id)
        if isinstance(node, ast.Attribute):
            dotted = dotted_name(node)
            if dotted is not None:
                hit = env.get(dotted)
                if hit is not None:
                    return hit
            return unit_of_identifier(node.attr)
        if isinstance(node, ast.UnaryOp):
            return self.eval(node.operand, env)
        if isinstance(node, ast.BinOp):
            left = self.eval(node.left, env)
            right = self.eval(node.right, env)
            if isinstance(node.op, (ast.Add, ast.Sub)):
                if left and right and left != right:
                    self._emit(
                        node,
                        f"mixed-unit arithmetic: `{_src(node.left)}` [{left}] "
                        f"{'+' if isinstance(node.op, ast.Add) else '-'} "
                        f"`{_src(node.right)}` [{right}]",
                    )
                    return None
                return left or right
            if isinstance(node.op, (ast.FloorDiv, ast.Mod)):
                return left if left == right else None
            return None  # *, /, ** produce derived units
        if isinstance(node, ast.Compare):
            left_u = self.eval(node.left, env)
            for op, comp in zip(node.ops, node.comparators):
                right_u = self.eval(comp, env)
                if (
                    left_u and right_u and left_u != right_u
                    and isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
                ):
                    self._emit(
                        node,
                        f"mixed-unit comparison: `{_src(node.left)}` "
                        f"[{left_u}] vs `{_src(comp)}` [{right_u}]",
                    )
                left_u = right_u
            return None
        if isinstance(node, ast.IfExp):
            self.eval(node.test, env)
            a = self.eval(node.body, env)
            b = self.eval(node.orelse, env)
            return a if a == b else None
        if isinstance(node, ast.Call):
            for arg in node.args:
                self.eval(arg, env)
            for kw in node.keywords:
                self.eval(kw.value, env)
            fn = dotted_name(node.func)
            callee = (fn or "").split(".")[-1]
            if callee in _UNIT_PRESERVING and node.args:
                arg_units = {self.eval(a, env) for a in node.args}
                arg_units.discard(None)
                if len(arg_units) == 1:
                    return next(iter(arg_units))
                return None
            if callee in self.fn_units:
                return self.fn_units[callee]
            return None
        if isinstance(node, ast.Subscript):
            base = self.eval(node.value, env)
            self.eval(node.slice, env)
            return base
        if isinstance(node, (ast.Tuple, ast.List, ast.Dict, ast.Set)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self.eval(child, env)
            return None
        # generic: evaluate children for nested finding detection
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.eval(child, env)
        return None

    # ----------------------------------------------------------- statements
    def transfer_stmt(self, stmt: ast.stmt, env: UnitEnv) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return
        if isinstance(stmt, ast.Assign):
            unit = self.eval(stmt.value, env)
            for target in stmt.targets:
                self._assign(target, stmt.value, unit, env)
            return
        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            unit = self.eval(stmt.value, env)
            self._assign(stmt.target, stmt.value, unit, env)
            return
        if isinstance(stmt, ast.AugAssign):
            value_unit = self.eval(stmt.value, env)
            target_unit = self.eval(stmt.target, env)
            if (
                isinstance(stmt.op, (ast.Add, ast.Sub))
                and value_unit and target_unit
                and value_unit != target_unit
            ):
                self._emit(
                    stmt,
                    f"mixed-unit arithmetic: `{_src(stmt.target)}` "
                    f"[{target_unit}] "
                    f"{'+=' if isinstance(stmt.op, ast.Add) else '-='} "
                    f"`{_src(stmt.value)}` [{value_unit}]",
                )
            return
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            got = self.eval(stmt.value, env)
            if self.declared and got and got != self.declared:
                self._emit(
                    stmt,
                    f"returns `{_src(stmt.value)}` [{got}] but the "
                    f"docstring declares {self.declared}; convert or "
                    "fix the declaration",
                )
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            unit = self.eval(stmt.iter, env)
            for name in _target_names(stmt.target):
                env.set(name, unit)
            return
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self.eval(child, env)

    def _assign(
        self,
        target: ast.expr,
        value: ast.expr,
        unit: Optional[str],
        env: UnitEnv,
    ) -> None:
        if isinstance(target, ast.Name):
            declared = unit_of_identifier(target.id)
            if declared and unit and declared != unit:
                self._emit(
                    target,
                    f"unit-dropping assignment: `{target.id}` is named "
                    f"[{declared}] but is bound to `{_src(value)}` "
                    f"[{unit}]",
                )
            env.set(target.id, unit or declared)
        elif isinstance(target, (ast.Tuple, ast.List)):
            if isinstance(value, (ast.Tuple, ast.List)) and len(
                value.elts
            ) == len(target.elts):
                for t_el, v_el in zip(target.elts, value.elts):
                    self._assign(t_el, v_el, self.eval(v_el, env), env)
            else:
                for t_el in target.elts:
                    if isinstance(t_el, ast.Name):
                        env.set(t_el.id, None)
        elif isinstance(target, ast.Attribute):
            declared = unit_of_identifier(target.attr)
            if declared and unit and declared != unit:
                self._emit(
                    target,
                    f"unit-dropping assignment: "
                    f"`{dotted_name(target) or target.attr}` is named "
                    f"[{declared}] but is bound to `{_src(value)}` "
                    f"[{unit}]",
                )
            dotted = dotted_name(target)
            if dotted is not None:
                env.set(dotted, unit or declared)


def _target_names(target: ast.expr) -> List[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        out: List[str] = []
        for el in target.elts:
            out.extend(_target_names(el))
        return out
    return []


def _src(node: ast.expr) -> str:
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on exprs
        return "<expr>"
    return text if len(text) <= 40 else text[:37] + "..."


def check_u2(ctx: Context) -> Iterator[Finding]:
    if not in_scope(ctx.module, UNIT_SCOPES):
        return
    fn_units = _module_fn_units(ctx.tree)
    machine = _UnitMachine(ctx, fn_units)
    for unit in functions_in(ctx.tree):
        machine.declared = _docstring_unit(ast.get_docstring(unit.node))
        cfg = build_cfg(unit.node)

        def transfer(block, state: UnitEnv) -> UnitEnv:
            out = state.copy()
            for stmt in block.stmts:
                machine.transfer_stmt(stmt, out)
            return out

        entry = solve_forward(
            cfg,
            UnitEnv(),
            transfer,
            lambda a, b: a.join(b),
            lambda s: s.copy(),
        )
        machine.report = True
        for bid in sorted(cfg.blocks):
            state = entry.get(bid)
            if state is None:
                continue
            out = state.copy()
            for stmt in cfg.blocks[bid].stmts:
                machine.transfer_stmt(stmt, out)
        machine.report = False
    yield from machine.findings
