"""C2 — coin-flow: every code path must move coins delta-balanced.

The engine's conserved quantity is ``Σ tile.has + _in_flight +
(coins_lost - coins_reminted)``.  Every function that touches coin
accounting must leave that sum unchanged on *every* control-flow path —
the runtime sanitizer checks this dynamically per event; C2 proves it
statically per function by abstract interpretation of the coin ledger.

Recognized movements (the accounting vocabulary):

* ``<x>._apply_delta(t, e)``  → ``+e`` into tile registers,
* ``self._in_flight += e`` / ``-= e`` → ``±e`` into the NoC ledger,
* ``<x>._book_loss(e, …)`` / ``self.coins_lost += e`` → ``+e`` lost,
* ``self.coins_reminted += e`` → ``-e`` lost (re-minting drains the
  pending-loss ledger).

A path is balanced when the symbolic sum of its movements reduces to
zero.  The reducer knows one algebraic fact beyond term cancellation:
an ``ExchangeResult.deltas`` tuple, and the tuple an exchange kernel
(``pair_deltas``, ``group_deltas``) returns, sums to zero
(``repro.core.coins`` guarantees it), so applying *all* elements of
one deltas family — directly, by unpacking, or by looping over a
``deltas[k:]`` slice — balances.  The ledger primitives themselves
(``_apply_delta``, ``_book_loss``) are exempt: their bodies *define*
the movements their call sites account for.

Paths are enumerated acyclically over the function's CFG (closures
included, sharing the enclosing function's delta families).  A loop
body containing movements must balance on its own unless it iterates a
deltas slice (then it contributes ``sum(deltas[k:])`` as a whole).
"""

from __future__ import annotations

import ast
import copy
from collections import Counter
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.astutil import Context, dotted_name, in_scope
from repro.analysis.dataflow.cfg import build_cfg, functions_in, iter_acyclic_paths
from repro.analysis.findings import Finding

__all__ = ["COIN_SCOPES", "check_c2"]

COIN_SCOPES = ("repro.core", "repro.sim")

#: Bodies that define the ledger primitives callers account for.
_EXEMPT_FUNCS = {"_apply_delta", "_book_loss", "__init__", "__post_init__"}

_PATH_LIMIT = 200

#: ``repro.core.coins`` kernels whose result tuple sums to zero.
_ZERO_SUM_KERNELS = {"pair_deltas", "group_deltas"}

# A symbolic movement is a Counter mapping term-key -> coefficient.
# Term keys:  ("term", "<unparsed expr>")  a plain expression
#             ("elt", family_id, index)    one element of a deltas tuple
#             ("rest", family_id, k)       sum of family elements [k:]


class _Families:
    """Zero-sum delta families discovered in one top-level function."""

    def __init__(self) -> None:
        #: name of an unpacked element -> (family_id, element index)
        self.elements: Dict[str, Tuple[int, int]] = {}
        #: name bound to a whole ``.deltas`` tuple -> family id
        self.tuples: Dict[str, int] = {}
        #: family id -> element count (None when bound as a whole tuple)
        self.sizes: Dict[int, Optional[int]] = {}
        self._next = 0

    def new_family(self, size: Optional[int]) -> int:
        fid = self._next
        self._next += 1
        self.sizes[fid] = size
        return fid

    def harvest(self, root: ast.AST) -> None:
        """Find ``… = <x>.deltas`` and ``… = <kernel>(…)`` bindings
        anywhere under ``root``."""
        for node in ast.walk(root):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            if not _is_zero_sum(node.value):
                continue
            target = node.targets[0]
            if isinstance(target, ast.Name):
                self.tuples[target.id] = self.new_family(None)
            elif isinstance(target, (ast.Tuple, ast.List)) and all(
                isinstance(el, ast.Name) for el in target.elts
            ):
                fid = self.new_family(len(target.elts))
                for i, el in enumerate(target.elts):
                    self.elements[el.id] = (fid, i)


def _is_zero_sum(value: ast.expr) -> bool:
    """True for an expression whose value is a zero-sum deltas tuple."""
    if isinstance(value, ast.Attribute):
        return value.attr == "deltas"
    if isinstance(value, ast.Call):
        callee = (dotted_name(value.func) or "").split(".")[-1]
        return callee in _ZERO_SUM_KERNELS
    return False


def _negate(term: Counter) -> Counter:
    return Counter({k: -v for k, v in term.items()})


def _accumulate(total: Counter, move: Counter) -> None:
    # Counter's `+` operator drops non-positive entries, which would
    # silently erase negative movements; accumulate coefficients by hand.
    for key, coeff in move.items():
        total[key] += coeff


class _Accountant:
    """Turns AST subtrees into symbolic coin movements."""

    def __init__(self, families: _Families) -> None:
        self.families = families

    def term_of(self, expr: ast.expr) -> Counter:
        """Symbolic value of a movement amount expression."""
        if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.USub):
            return _negate(self.term_of(expr.operand))
        if isinstance(expr, ast.Name):
            fam = self.families.elements.get(expr.id)
            if fam is not None:
                return Counter({("elt", fam[0], fam[1]): 1})
        if isinstance(expr, ast.Subscript) and isinstance(
            expr.value, ast.Name
        ):
            fid = self.families.tuples.get(expr.value.id)
            if fid is not None:
                idx = _const_int(expr.slice)
                if idx is not None:
                    return Counter({("elt", fid, idx): 1})
        if isinstance(expr, ast.Constant) and expr.value == 0:
            return Counter()
        try:
            text = ast.unparse(expr)
        except Exception:  # pragma: no cover - unparse is total on exprs
            text = repr(expr)
        return Counter({("term", text): 1})

    def movements_in(self, node: ast.AST) -> List[Counter]:
        """All coin movements in a subtree (each AST node counted once)."""
        moves: List[Counter] = []
        for sub in ast.walk(node):
            if isinstance(sub, ast.AugAssign) and isinstance(
                sub.target, ast.Attribute
            ):
                account = sub.target.attr
                sign = 0
                if account == "_in_flight":
                    if isinstance(sub.op, ast.Add):
                        sign = 1
                    elif isinstance(sub.op, ast.Sub):
                        sign = -1
                elif account == "coins_lost" and isinstance(sub.op, ast.Add):
                    sign = 1
                elif account == "coins_reminted" and isinstance(
                    sub.op, ast.Add
                ):
                    sign = -1
                if sign:
                    term = self.term_of(sub.value)
                    moves.append(term if sign > 0 else _negate(term))
            elif isinstance(sub, ast.Call):
                callee = (dotted_name(sub.func) or "").split(".")[-1]
                if callee == "_apply_delta" and len(sub.args) >= 2:
                    moves.append(self.term_of(sub.args[1]))
                elif callee == "_book_loss" and sub.args:
                    moves.append(self.term_of(sub.args[0]))
        return moves

    def loop_family_slice(
        self, stmt: "ast.For | ast.AsyncFor"
    ) -> Optional[Tuple[int, int, Set[str]]]:
        """Detect ``for … in deltas[k:]`` (possibly through ``zip``).

        Returns (family_id, k, {loop-var names bound to delta elements}),
        or None for ordinary loops.
        """
        pairs: List[Tuple[ast.expr, ast.expr]] = []
        if (
            isinstance(stmt.iter, ast.Call)
            and isinstance(stmt.iter.func, ast.Name)
            and stmt.iter.func.id == "zip"
            and isinstance(stmt.target, (ast.Tuple, ast.List))
            and len(stmt.iter.args) == len(stmt.target.elts)
        ):
            pairs = list(zip(stmt.target.elts, stmt.iter.args))
        else:
            pairs = [(stmt.target, stmt.iter)]
        for target, source in pairs:
            if not isinstance(target, ast.Name):
                continue
            if isinstance(source, ast.Name):
                fid = self.families.tuples.get(source.id)
                if fid is not None:
                    return fid, 0, {target.id}
            elif isinstance(source, ast.Subscript) and isinstance(
                source.value, ast.Name
            ):
                fid = self.families.tuples.get(source.value.id)
                if fid is None or not isinstance(source.slice, ast.Slice):
                    continue
                if source.slice.upper is None and source.slice.step is None:
                    k = _const_int(source.slice.lower) or 0
                    return fid, k, {target.id}
        return None

    def loop_body_sign(
        self, stmt: "ast.For | ast.AsyncFor", loop_vars: Set[str]
    ) -> int:
        """Net per-iteration coefficient of movements on the loop var."""
        sign = 0
        for body_stmt in stmt.body:
            for move in self.movements_in(body_stmt):
                for key, coeff in move.items():
                    if key[0] == "term" and key[1] in loop_vars:
                        sign += coeff
        return sign


def _const_int(node: Optional[ast.AST]) -> Optional[int]:
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return node.value
    return None


def _reduce(total: Counter, families: _Families) -> Counter:
    """Cancel zero-sum delta families out of a symbolic path sum."""
    total = Counter({k: v for k, v in total.items() if v != 0})
    changed = True
    while changed:
        changed = False
        for fid, size in families.sizes.items():
            elts = {
                k: v for k, v in total.items()
                if k[0] == "elt" and k[1] == fid
            }
            rests = {
                k: v for k, v in total.items()
                if k[0] == "rest" and k[1] == fid
            }
            if not elts and not rests:
                continue
            coeffs = set(elts.values()) | set(rests.values())
            if len(coeffs) != 1:
                continue
            indices = sorted(k[2] for k in elts)
            cancel = False
            if len(rests) == 1:
                # elements [0..k-1] plus sum(deltas[k:]) = sum(deltas)
                k_rest = next(iter(rests))[2]
                cancel = indices == list(range(k_rest))
            elif not rests and size is not None:
                cancel = indices == list(range(size))
            if cancel:
                for k in list(elts) + list(rests):
                    del total[k]
                changed = True
        total = Counter({k: v for k, v in total.items() if v != 0})
    return total


def _pretty(total: Counter) -> str:
    parts: List[str] = []
    for key, coeff in sorted(total.items(), key=lambda kv: str(kv[0])):
        if key[0] == "term":
            name = key[1]
        elif key[0] == "elt":
            name = f"deltas#{key[1]}[{key[2]}]"
        else:
            name = f"sum(deltas#{key[1]}[{key[2]}:])"
        sign = "+" if coeff > 0 else "-"
        mag = abs(coeff)
        parts.append(f"{sign}{mag}*{name}" if mag != 1 else f"{sign}{name}")
    return " ".join(parts) or "0"


class _Strip(ast.NodeTransformer):
    """Empty out nested function bodies (they get their own analysis)."""

    def _strip(self, node: ast.AST) -> ast.AST:
        node.body = [ast.copy_location(ast.Pass(), node)]  # type: ignore
        return node

    def visit_FunctionDef(self, node: ast.FunctionDef) -> ast.AST:
        return self._strip(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> ast.AST:
        return self._strip(node)


def _own_body(
    fn: "ast.FunctionDef | ast.AsyncFunctionDef",
) -> "ast.FunctionDef | ast.AsyncFunctionDef":
    clone = copy.deepcopy(fn)
    stripper = _Strip()
    clone.body = [stripper.visit(s) for s in clone.body]
    return clone


def _path_residues(
    owner: "ast.FunctionDef | ast.AsyncFunctionDef",
    families: _Families,
    acct: _Accountant,
) -> Iterator[Counter]:
    """Residues of unbalanced acyclic paths through ``owner``'s body."""
    cfg = build_cfg(owner)
    for path in iter_acyclic_paths(cfg, limit=_PATH_LIMIT):
        total: Counter = Counter()
        for block in path:
            for stmt in block.stmts:
                if isinstance(
                    stmt,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                ):
                    continue
                if isinstance(stmt, (ast.For, ast.AsyncFor)):
                    fam = acct.loop_family_slice(stmt)
                    if fam is not None:
                        fid, k, loop_vars = fam
                        sign = acct.loop_body_sign(stmt, loop_vars)
                        if sign:
                            _accumulate(
                                total, Counter({("rest", fid, k): sign})
                            )
                    # Ordinary loop bodies are checked separately (their
                    # CFG blocks never complete an acyclic path).
                    continue
                if isinstance(stmt, (ast.If, ast.While, ast.Try)):
                    continue  # compound headers move nothing themselves
                for move in acct.movements_in(stmt):
                    _accumulate(total, move)
        residue = _reduce(total, families)
        if residue:
            yield residue


def _loop_bodies_with_movements(
    owner: "ast.FunctionDef | ast.AsyncFunctionDef", acct: _Accountant
) -> Iterator["ast.For | ast.AsyncFor | ast.While"]:
    for node in ast.walk(owner):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            if acct.loop_family_slice(node) is not None:
                continue
        elif not isinstance(node, ast.While):
            continue
        if any(acct.movements_in(s) for s in node.body):
            yield node


class _LoopBody:
    """Duck-typed function wrapper so a loop body can reuse build_cfg."""

    def __init__(self, stmts: List[ast.stmt], lineno: int) -> None:
        self.body = stmts
        self.lineno = lineno
        self.col_offset = 0


def check_c2(ctx: Context) -> Iterator[Finding]:
    if not in_scope(ctx.module, COIN_SCOPES):
        return
    units = functions_in(ctx.tree)
    by_qual = {u.qualname: u for u in units}
    fam_of_top: Dict[str, _Families] = {}
    for u in units:
        if u.depth == 0:
            fam = _Families()
            fam.harvest(u.node)
            fam_of_top[u.qualname] = fam
    emitted: Set[Tuple[int, str]] = set()
    for unit in units:
        if unit.node.name in _EXEMPT_FUNCS:
            continue
        top = unit
        while top.depth > 0 and top.parent in by_qual:
            top = by_qual[top.parent]
        families = fam_of_top.get(top.qualname) or _Families()
        acct = _Accountant(families)
        own = _own_body(unit.node)
        if not any(acct.movements_in(s) for s in own.body):
            continue
        messages: List[Tuple[int, int, str]] = []
        for residue in _path_residues(own, families, acct):
            messages.append((
                unit.node.lineno,
                unit.node.col_offset,
                f"code path through `{unit.qualname}` moves coins "
                f"unbalanced (net {_pretty(residue)}); every path must "
                "conserve Σhas + in_flight + lost_pending",
            ))
        for loop in _loop_bodies_with_movements(own, acct):
            body_fn = _LoopBody(loop.body, loop.lineno)
            for residue in _path_residues(body_fn, families, acct):  # type: ignore[arg-type]
                messages.append((
                    loop.lineno,
                    loop.col_offset,
                    f"loop body in `{unit.qualname}` moves coins "
                    f"unbalanced per iteration (net {_pretty(residue)})",
                ))
        for line, col, msg in messages:
            if (line, msg) in emitted:
                continue
            emitted.add((line, msg))
            yield Finding(ctx.path, line, col, "C2", msg)
