"""blitzlint v2: dataflow engine, D2/U2/C2/P1, SARIF, baseline, cache."""

import ast
import json
from pathlib import Path

import pytest

from repro.analysis.__main__ import main as lint_main
from repro.analysis.baseline import (
    BaselineError,
    diff_against_baseline,
    load_baseline,
    write_baseline,
)
from repro.analysis.cache import CacheError, ResultCache
from repro.analysis.dataflow import (
    CFG,
    FixpointDiverged,
    TaintEnv,
    UnitEnv,
    build_cfg,
    functions_in,
    iter_acyclic_paths,
    solve_forward,
)
from repro.analysis.lint import LintError, lint_paths, lint_source
from repro.analysis.sarif import to_sarif, validate_sarif

FIXTURES = Path(__file__).parent / "fixtures" / "lint"


def codes(findings):
    return sorted({f.code for f in findings})


def only(findings, code):
    return [f for f in findings if f.code == code]


# ===================================================================== core
class TestCFG:
    def _fn(self, src):
        return ast.parse(src).body[0]

    def test_straight_line_is_one_path(self):
        cfg = build_cfg(self._fn("def f():\n    a = 1\n    b = 2\n"))
        paths = list(iter_acyclic_paths(cfg))
        assert len(paths) == 1

    def test_if_else_makes_two_paths(self):
        cfg = build_cfg(
            self._fn(
                "def f(x):\n"
                "    if x:\n"
                "        a = 1\n"
                "    else:\n"
                "        a = 2\n"
                "    return a\n"
            )
        )
        assert len(list(iter_acyclic_paths(cfg))) == 2

    def test_early_return_paths(self):
        cfg = build_cfg(
            self._fn(
                "def f(x):\n"
                "    if x:\n"
                "        return 1\n"
                "    return 2\n"
            )
        )
        assert len(list(iter_acyclic_paths(cfg))) == 2

    def test_loop_has_back_edge_and_stays_acyclic(self):
        cfg = build_cfg(
            self._fn(
                "def f(xs):\n"
                "    total = 0\n"
                "    for x in xs:\n"
                "        total += x\n"
                "    return total\n"
            )
        )
        # Back edge exists in the graph...
        assert any(
            b in cfg.blocks[s].succs
            for b in cfg.blocks
            for s in cfg.blocks[b].succs
        )
        # ...but enumeration never revisits a block.
        for path in iter_acyclic_paths(cfg):
            bids = [b.bid for b in path]
            assert len(bids) == len(set(bids))

    def test_path_enumeration_capped(self):
        # 20 sequential ifs -> 2**20 paths; the cap must bound the walk.
        src = "def f(x):\n" + "".join(
            f"    if x == {i}:\n        x += 1\n" for i in range(20)
        ) + "    return x\n"
        cfg = build_cfg(self._fn(src))
        assert len(list(iter_acyclic_paths(cfg, limit=64))) <= 64

    def test_rpo_starts_at_entry(self):
        cfg = build_cfg(self._fn("def f():\n    a = 1\n"))
        assert cfg.rpo()[0] == cfg.entry

    def test_functions_in_finds_nested_and_methods(self):
        tree = ast.parse(
            "class A:\n"
            "    def m(self):\n"
            "        def inner():\n"
            "            pass\n"
        )
        units = {u.qualname: u for u in functions_in(tree)}
        assert "A.m" in units
        assert units["A.m"].depth == 0
        inner = [u for u in units.values() if u.node.name == "inner"][0]
        assert inner.depth == 1
        assert inner.parent == "A.m"


class TestSolver:
    def test_taint_env_join_is_union(self):
        from repro.analysis.dataflow import Taint

        a, b = TaintEnv(), TaintEnv()
        t1, t2 = Taint("rng", 1, "x"), Taint("wall-clock", 2, "y")
        a.set("v", frozenset([t1]))
        b.set("v", frozenset([t2]))
        assert a.join(b).get("v") == frozenset([t1, t2])

    def test_unit_env_join_keeps_agreement_only(self):
        a, b = UnitEnv(), UnitEnv()
        a.set("p", "mW")
        a.set("q", "J")
        b.set("p", "mW")
        b.set("q", "W")
        j = a.join(b)
        assert j.get("p") == "mW"
        assert j.get("q") is None

    def test_divergence_guard(self):
        fn = ast.parse(
            "def f(xs):\n    while xs:\n        xs = g(xs)\n"
        ).body[0]
        cfg = build_cfg(fn)

        class Grow:
            def __init__(self, n=0):
                self.n = n

            def join(self, other):
                return Grow(max(self.n, other.n))

            def copy(self):
                return Grow(self.n)

            def __eq__(self, other):
                return False  # never converges

        with pytest.raises(FixpointDiverged):
            solve_forward(
                cfg,
                Grow(),
                lambda stmt, st: Grow(st.n + 1),
                lambda a, b: a.join(b),
                lambda s: s.copy(),
                max_visits_per_block=4,
            )


# ================================================================== rule D2
class TestRuleD2RngTaint:
    def test_wall_clock_into_schedule_delay(self):
        findings = lint_source(
            "import time\n"
            "def f(sim, h):\n"
            "    t = time.time()\n"
            "    d = int(t) % 5\n"
            "    sim.schedule(d, h)\n",
            module="repro.sim.x",
        )
        assert "D2" in codes(findings)

    def test_entropy_into_seed_function(self):
        findings = lint_source(
            "import os\n"
            "def f():\n"
            "    raw = os.urandom(4)\n"
            "    return spawn_rng(raw, 2)\n",
            module="repro.campaign.x",
        )
        assert "D2" in codes(findings)

    def test_iter_order_taint_reaches_sink(self):
        findings = lint_source(
            "def f(tiles):\n"
            "    first = [t for t in {x for x in tiles}][0]\n"
            "    return rng_for(first, 'a')\n",
            module="repro.campaign.x",
        )
        assert "D2" in codes(findings)

    def test_sorted_launders_iter_order(self):
        findings = lint_source(
            "def f(tiles):\n"
            "    first = sorted({x for x in tiles})[0]\n"
            "    return rng_for(first, 'a')\n",
            module="repro.campaign.x",
        )
        assert only(findings, "D2") == []

    def test_id_into_sim_state_write(self):
        findings = lint_source(
            "def f(self, pkt):\n"
            "    tag = id(pkt)\n"
            "    self.state = tag\n",
            module="repro.core.x",
        )
        assert "D2" in codes(findings)

    def test_taint_joins_across_branches(self):
        findings = lint_source(
            "import time\n"
            "def f(sim, h, flag):\n"
            "    if flag:\n"
            "        d = 3\n"
            "    else:\n"
            "        d = int(time.time())\n"
            "    sim.schedule(d, h)\n",
            module="repro.sim.x",
        )
        assert "D2" in codes(findings)

    def test_clean_seeded_flow(self):
        findings = lint_source(
            "def f(sim, h, seed):\n"
            "    rng = spawn_rng(seed, 3)\n"
            "    sim.schedule(7, h)\n",
            module="repro.sim.x",
        )
        assert only(findings, "D2") == []


# ================================================================== rule U2
class TestRuleU2UnitsFlow:
    def test_mixed_unit_add(self):
        findings = lint_source(
            "def f(power_mw, energy_j):\n"
            "    return power_mw + energy_j\n",
            module="repro.power.x",
        )
        assert "U2" in codes(findings)

    def test_unit_dropping_return(self):
        findings = lint_source(
            "def f(energy_j):\n"
            '    """Budget in mW."""\n'
            "    return energy_j\n",
            module="repro.power.x",
        )
        assert "U2" in codes(findings)

    def test_same_unit_add_clean(self):
        findings = lint_source(
            "def f(a_mw, b_mw):\n"
            "    return a_mw + b_mw\n",
            module="repro.power.x",
        )
        assert only(findings, "U2") == []

    def test_unit_preserving_calls_clean(self):
        findings = lint_source(
            "def f(a_mw, b_mw):\n"
            "    return max(a_mw, abs(b_mw))\n",
            module="repro.power.x",
        )
        assert only(findings, "U2") == []

    def test_mixed_unit_comparison(self):
        findings = lint_source(
            "def f(a_mw, b_j):\n"
            "    return a_mw < b_j\n",
            module="repro.power.x",
        )
        assert "U2" in codes(findings)

    def test_units_propagate_through_assignment(self):
        findings = lint_source(
            "def f(a_mw, b_j):\n"
            "    x = a_mw\n"
            "    y = b_j\n"
            "    return x + y\n",
            module="repro.power.x",
        )
        assert "U2" in codes(findings)

    def test_out_of_scope_module_ignored(self):
        findings = lint_source(
            "def f(a_mw, b_j):\n"
            "    return a_mw + b_j\n",
            module="repro.report.x",
        )
        assert only(findings, "U2") == []


# ================================================================== rule C2
class TestRuleC2CoinFlow:
    def test_dropped_partner_delta(self):
        findings = lint_source(
            "class E:\n"
            "    def go(self, result, a, b, flag):\n"
            "        da, db = result.deltas\n"
            "        self._apply_delta(a, da)\n"
            "        if flag:\n"
            "            self._apply_delta(b, db)\n",
            module="repro.core.x",
        )
        assert "C2" in codes(findings)

    def test_full_unpack_applied_clean(self):
        findings = lint_source(
            "class E:\n"
            "    def go(self, result, a, b):\n"
            "        da, db = result.deltas\n"
            "        self._apply_delta(a, da)\n"
            "        self._in_flight += db\n",
            module="repro.core.x",
        )
        assert only(findings, "C2") == []

    def test_zip_slice_loop_balances(self):
        findings = lint_source(
            "class E:\n"
            "    def go(self, result, center, order):\n"
            "        deltas = result.deltas\n"
            "        self._apply_delta(center, deltas[0])\n"
            "        for nb, d in zip(order, deltas[1:]):\n"
            "            self._in_flight += d\n",
            module="repro.core.x",
        )
        assert only(findings, "C2") == []

    def test_in_flight_handoff_clean(self):
        findings = lint_source(
            "class E:\n"
            "    def on_update(self, dst, delta):\n"
            "        self._in_flight -= delta\n"
            "        self._apply_delta(dst, delta)\n",
            module="repro.core.x",
        )
        assert only(findings, "C2") == []

    def test_loss_booking_clean(self):
        findings = lint_source(
            "class E:\n"
            "    def confiscate(self, tid, held):\n"
            "        self._apply_delta(tid, -held)\n"
            "        self._book_loss(held, prefer=None)\n",
            module="repro.core.x",
        )
        assert only(findings, "C2") == []

    def test_one_sided_loss_flags(self):
        findings = lint_source(
            "class E:\n"
            "    def vanish(self, tid, held):\n"
            "        self._apply_delta(tid, -held)\n",
            module="repro.core.x",
        )
        assert "C2" in codes(findings)

    def test_primitives_exempt(self):
        findings = lint_source(
            "class E:\n"
            "    def _apply_delta(self, tid, delta):\n"
            "        self.fsm[tid].coins.has += delta\n",
            module="repro.core.x",
        )
        assert only(findings, "C2") == []

    def test_ordinary_loop_body_must_balance(self):
        findings = lint_source(
            "class E:\n"
            "    def drain(self, tids):\n"
            "        for t in tids:\n"
            "            self._apply_delta(t, 1)\n",
            module="repro.core.x",
        )
        assert "C2" in codes(findings)

    def test_closure_shares_families(self):
        findings = lint_source(
            "class E:\n"
            "    def go(self, sim, result, a, b):\n"
            "        da, db = result.deltas\n"
            "        def apply():\n"
            "            self._apply_delta(a, da)\n"
            "            self._in_flight += db\n"
            "        sim.schedule(3, apply)\n",
            module="repro.core.x",
        )
        assert only(findings, "C2") == []

    def test_out_of_scope_module_ignored(self):
        findings = lint_source(
            "class E:\n"
            "    def vanish(self, tid, held):\n"
            "        self._apply_delta(tid, -held)\n",
            module="repro.obs.x",
        )
        assert only(findings, "C2") == []

    @pytest.mark.parametrize(
        "binding",
        ["da, db = pair_deltas(1, 2, 3, 4)", "da, db = coins.pair_deltas(h, m)"],
    )
    def test_pair_kernel_tuple_is_a_family(self, binding):
        source = (
            "class E:\n"
            "    def go(self, a, b, h, m):\n"
            f"        {binding}\n"
            "        self._apply_delta(a, da)\n"
            "        self._in_flight += db\n"
        )
        assert only(lint_source(source, module="repro.core.x"), "C2") == []
        # Dropping either element of the kernel's tuple leaves a residue.
        for dropped in ("        self._in_flight += db\n",
                        "        self._apply_delta(a, da)\n"):
            leaky = source.replace(dropped, "")
            assert "C2" in codes(lint_source(leaky, module="repro.core.x"))

    def test_group_kernel_tuple_is_a_family(self):
        source = (
            "class E:\n"
            "    def go(self, sim, center, order, has, maxes):\n"
            "        deltas = group_deltas(has, maxes)\n"
            "        def apply():\n"
            "            self._apply_delta(center, deltas[0])\n"
            "            for nb, d in zip(order, deltas[1:]):\n"
            "                self._in_flight += d\n"
            "        sim.schedule(4, apply)\n"
        )
        assert only(lint_source(source, module="repro.core.x"), "C2") == []
        leaky = source.replace("deltas[1:]", "deltas[2:]")
        assert "C2" in codes(lint_source(leaky, module="repro.core.x"))

    def test_other_calls_are_not_families(self):
        findings = lint_source(
            "class E:\n"
            "    def go(self, a, b):\n"
            "        da, db = split(a, b)\n"
            "        self._apply_delta(a, da)\n"
            "        self._in_flight += db\n",
            module="repro.core.x",
        )
        assert "C2" in codes(findings)


# ================================================================== rule P1
class TestRuleP1ParallelSafety:
    def test_mutated_module_global(self):
        findings = lint_source(
            "_CACHE = {}\n"
            "def run(u):\n"
            "    _CACHE[u] = 1\n",
            module="repro.campaign.x",
        )
        assert "P1" in codes(findings)

    def test_read_only_module_table_clean(self):
        findings = lint_source(
            "_TABLE = {'a': 1}\n"
            "def run(u):\n"
            "    return _TABLE.get(u)\n",
            module="repro.campaign.x",
        )
        assert only(findings, "P1") == []

    def test_lambda_submission(self):
        findings = lint_source(
            "def drive(pool, xs):\n"
            "    return pool.map(lambda x: x + 1, xs)\n",
            module="repro.campaign.x",
        )
        assert "P1" in codes(findings)

    def test_local_closure_submission(self):
        findings = lint_source(
            "def drive(pool, xs):\n"
            "    def work(x):\n"
            "        return x + 1\n"
            "    return pool.map(work, xs)\n",
            module="repro.campaign.x",
        )
        assert "P1" in codes(findings)

    def test_module_function_submission_clean(self):
        findings = lint_source(
            "def work(x):\n"
            "    return x + 1\n"
            "def drive(pool, xs):\n"
            "    return pool.map(work, xs)\n",
            module="repro.campaign.x",
        )
        assert only(findings, "P1") == []

    def test_fork_start_method(self):
        findings = lint_source(
            "import multiprocessing\n"
            "def setup():\n"
            "    multiprocessing.set_start_method('fork')\n",
            module="repro.campaign.x",
        )
        assert "P1" in codes(findings)

    def test_import_time_pool(self):
        findings = lint_source(
            "from concurrent.futures import ProcessPoolExecutor\n"
            "_POOL = ProcessPoolExecutor(2)\n",
            module="repro.campaign.x",
        )
        assert "P1" in codes(findings)

    def test_out_of_scope_module_ignored(self):
        findings = lint_source(
            "_CACHE = {}\n"
            "def run(u):\n"
            "    _CACHE[u] = 1\n",
            module="repro.core.x",
        )
        assert only(findings, "P1") == []


class TestRuleP1ScopedRuntimeWrites:
    """The scope-free check: never assign the scoped runtime flags."""

    def test_direct_sink_write_flagged_anywhere(self):
        # Scope-free: repro.core is NOT a parallel scope, yet the
        # write is still flagged — the scoped runtime's integrity is
        # a whole-process property.
        findings = lint_source(
            "from repro.obs import runtime\n"
            "def hijack(s):\n"
            "    runtime.sink = s\n",
            module="repro.core.x",
        )
        assert "P1" in codes(findings)
        assert "bypasses the scoped runtime" in findings[0].message

    def test_aliased_import_write_flagged(self):
        findings = lint_source(
            "from repro.obs import runtime as _obs\n"
            "def hijack(s):\n"
            "    _obs.sink = s\n",
            module="repro.serve.x",
        )
        assert "P1" in codes(findings)

    def test_full_dotted_write_flagged(self):
        findings = lint_source(
            "import repro.obs.runtime\n"
            "def hijack(s):\n"
            "    repro.obs.runtime.sink = s\n",
            module="repro.core.x",
        )
        assert "P1" in codes(findings)

    def test_injector_write_and_delete_flagged(self):
        findings = lint_source(
            "from repro.faults import runtime as _faults\n"
            "def hijack(inj):\n"
            "    _faults.injector = inj\n"
            "    del _faults.injector\n",
            module="repro.noc.x",
        )
        assert len(only(findings, "P1")) == 2

    def test_reads_and_api_calls_clean(self):
        findings = lint_source(
            "from repro.obs import runtime as _obs\n"
            "from repro.obs.runtime import install, uninstall\n"
            "def emit(now):\n"
            "    if _obs.sink is not None:\n"
            "        _obs.sink.inc('x', now)\n"
            "def scope(s):\n"
            "    install(s)\n"
            "    uninstall()\n",
            module="repro.engine.x",
        )
        assert only(findings, "P1") == []

    def test_unrelated_sink_attribute_clean(self):
        # An object that merely has a `.sink` attribute is untouched —
        # the check resolves the import alias to the runtime module.
        findings = lint_source(
            "def set_sink(pipeline, s):\n"
            "    pipeline.sink = s\n",
            module="repro.core.x",
        )
        assert only(findings, "P1") == []

    def test_runtime_module_itself_exempt(self):
        findings = lint_source(
            "import sys\n"
            "def uninstall():\n"
            "    sys.modules[__name__].sink = None\n",
            module="repro.obs.runtime",
        )
        assert only(findings, "P1") == []


# ============================================================= suppressions
class TestSuppressionEdgeCases:
    def test_multi_rule_disable_on_one_line(self):
        findings = lint_source(
            "def f(a_mw, b_j):\n"
            "    return a_mw + b_j  # blitzlint: disable=U2,D1\n",
            module="repro.power.x",
        )
        assert findings == []

    def test_standalone_pragma_covers_next_line(self):
        findings = lint_source(
            "import time\n"
            "def f():\n"
            "    # blitzlint: disable=D1\n"
            "    return time.time()\n",
            module="repro.power.x",
        )
        assert findings == []

    def test_standalone_pragma_does_not_leak_past_next_line(self):
        findings = lint_source(
            "import time  # blitzlint: disable=D1\n"
            "def f():\n"
            "    # blitzlint: disable=D1\n"
            "    a = time.time()\n"
            "    return time.time()\n",
            module="repro.power.x",
        )
        assert [f.line for f in findings] == [5]

    def test_unknown_rule_name_in_pragma_is_inert(self):
        findings = lint_source(
            "import random  # blitzlint: disable=ZZ9\n",
            module="repro.power.x",
        )
        assert codes(findings) == ["D1"]

    def test_unknown_plus_known_still_suppresses_known(self):
        findings = lint_source(
            "import time  # blitzlint: disable=ZZ9,D1\n",
            module="repro.power.x",
        )
        assert findings == []

    def test_disable_file_pragma(self):
        findings = lint_source(
            "# blitzlint: disable-file=D1\n"
            "import time\n"
            "def f():\n"
            "    return time.time()\n",
            module="repro.power.x",
        )
        assert findings == []

    def test_disable_file_leaves_other_rules(self):
        findings = lint_source(
            "# blitzlint: disable-file=D1\n"
            "import time\n"
            "def f(a_mw, b_j):\n"
            "    return a_mw + b_j\n",
            module="repro.power.x",
        )
        assert codes(findings) == ["U2"]

    def test_pragma_inside_string_is_inert(self):
        findings = lint_source(
            'SNIPPET = """\n'
            "# blitzlint: scope=repro.core.coins\n"
            '"""\n'
            "x = 1 / 2\n",
            module="",
        )
        assert findings == []

    def test_disable_pragma_inside_string_is_inert(self):
        findings = lint_source(
            'S = "# blitzlint: disable=D1"\n'
            "import random\n",
            module="repro.power.x",
        )
        assert codes(findings) == ["D1"]


# ================================================================= CLI / rc
class TestCliErrorPaths:
    def test_missing_baseline_is_one_line_rc2(self, tmp_path, capsys):
        rc = lint_main(
            [str(FIXTURES / "bad_d1.py"), "--baseline",
             str(tmp_path / "nope.json")]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("blitzlint: error:")
        assert "Traceback" not in err

    def test_corrupt_cache_is_one_line_rc2(self, tmp_path, capsys):
        cache = tmp_path / "cache.json"
        cache.write_text("{ not json", encoding="utf-8")
        rc = lint_main(
            [str(FIXTURES / "bad_d1.py"), "--cache", str(cache)]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("blitzlint: error:")
        assert "Traceback" not in err

    def test_unwritable_out_is_one_line_rc2(self, tmp_path, capsys):
        blocker = tmp_path / "plainfile"
        blocker.write_text("", encoding="utf-8")
        rc = lint_main(
            [str(FIXTURES / "bad_d1.py"), "--format", "sarif",
             "--out", str(blocker / "report.sarif")]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("blitzlint: error:")
        assert "Traceback" not in err

    def test_missing_path_still_rc2(self, capsys):
        rc = lint_main(["/no/such/dir"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("blitzlint: error:")

    def test_sarif_to_stdout(self, capsys):
        rc = lint_main([str(FIXTURES / "bad_u1.py"), "--format", "sarif"])
        assert rc == 1
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        assert validate_sarif(log) == []


# ==================================================================== SARIF
class TestSarif:
    def _findings(self):
        return lint_source(
            "import time\n"
            "def f(a_mw, b_j):\n"
            "    return a_mw + b_j\n",
            path="src/repro/power/x.py",
            module="repro.power.x",
        )

    def test_log_validates_against_schema(self):
        assert validate_sarif(to_sarif(self._findings())) == []

    def test_jsonschema_validation_when_available(self):
        jsonschema = pytest.importorskip("jsonschema")
        from repro.analysis.sarif import SARIF_SCHEMA

        jsonschema.validate(to_sarif(self._findings()), SARIF_SCHEMA)

    def test_empty_log_validates(self):
        assert validate_sarif(to_sarif([])) == []

    def test_columns_are_one_based(self):
        log = to_sarif(self._findings())
        for res in log["runs"][0]["results"]:
            region = res["locations"][0]["physicalLocation"]["region"]
            assert region["startLine"] >= 1
            assert region["startColumn"] >= 1

    def test_results_carry_fingerprints(self):
        log = to_sarif(self._findings())
        for res in log["runs"][0]["results"]:
            assert "blitzlintFingerprint/v1" in res["partialFingerprints"]

    def test_rule_catalog_lists_all_rules(self):
        from repro.analysis.lint import RULES

        log = to_sarif([])
        ids = {r["id"] for r in log["runs"][0]["tool"]["driver"]["rules"]}
        assert ids == set(RULES)

    def test_broken_log_reports_errors(self):
        assert validate_sarif({"version": "1.0.0", "runs": []}) != []


# ================================================================= baseline
class TestBaseline:
    SRC_V1 = (
        "import time\n"
        "def f():\n"
        "    return time.time()\n"
    )
    # Same finding, shifted down by an unrelated edit above it.
    SRC_V2 = (
        "import os\n"
        "import time\n"
        "def f():\n"
        "    return time.time()\n"
    )

    def test_roundtrip_gates_to_zero(self, tmp_path):
        findings = lint_source(self.SRC_V1, module="repro.power.x")
        bl = tmp_path / "bl.json"
        write_baseline(bl, findings, {"<string>": self.SRC_V1})
        new, known, fixed = diff_against_baseline(
            findings, load_baseline(bl), {"<string>": self.SRC_V1}
        )
        assert new == []
        assert len(known) == len(findings)
        assert fixed == []

    def test_fingerprint_survives_line_drift(self, tmp_path):
        bl = tmp_path / "bl.json"
        write_baseline(
            bl,
            lint_source(self.SRC_V1, module="repro.power.x"),
            {"<string>": self.SRC_V1},
        )
        drifted = lint_source(self.SRC_V2, module="repro.power.x")
        new, known, _ = diff_against_baseline(
            drifted, load_baseline(bl), {"<string>": self.SRC_V2}
        )
        assert new == []
        assert len(known) == len(drifted)

    def test_new_finding_gates(self, tmp_path):
        bl = tmp_path / "bl.json"
        write_baseline(
            bl,
            lint_source(self.SRC_V1, module="repro.power.x"),
            {"<string>": self.SRC_V1},
        )
        src = self.SRC_V1 + "def g():\n    return time.perf_counter()\n"
        new, known, _ = diff_against_baseline(
            lint_source(src, module="repro.power.x"),
            load_baseline(bl),
            {"<string>": src},
        )
        assert len(new) == 1
        assert "perf_counter" in new[0].message

    def test_fixed_findings_reported(self, tmp_path):
        bl = tmp_path / "bl.json"
        write_baseline(
            bl,
            lint_source(self.SRC_V1, module="repro.power.x"),
            {"<string>": self.SRC_V1},
        )
        _, _, fixed = diff_against_baseline([], load_baseline(bl), {})
        assert fixed  # every baselined hint is now gone

    def test_malformed_baseline_raises(self, tmp_path):
        bl = tmp_path / "bl.json"
        bl.write_text('{"fingerprints": []}', encoding="utf-8")
        with pytest.raises(BaselineError):
            load_baseline(bl)

    def test_repo_baseline_is_clean_at_head(self, capsys):
        repo = Path(__file__).resolve().parent.parent
        rc = lint_main(
            [
                str(repo / "src" / "repro"),
                "--baseline",
                str(repo / "lint-baseline.json"),
            ]
        )
        capsys.readouterr()
        assert rc == 0


# ==================================================================== cache
class TestResultCache:
    def test_warm_hit_returns_same_findings(self, tmp_path):
        cache = ResultCache(tmp_path / "c.json")
        f = tmp_path / "m.py"
        f.write_text("import random\n", encoding="utf-8")
        # blitzlint scope comes from the path (not under repro) -> D1 only
        cold = lint_paths([str(f)], cache=cache)
        cache.save()
        warm_cache = ResultCache(tmp_path / "c.json")
        warm = lint_paths([str(f)], cache=warm_cache)
        assert [x.to_dict() for x in warm] == [x.to_dict() for x in cold]

    def test_content_change_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path / "c.json")
        f = tmp_path / "m.py"
        f.write_text("import random\n", encoding="utf-8")
        assert lint_paths([str(f)], cache=cache)
        f.write_text("x = 1\n", encoding="utf-8")
        assert lint_paths([str(f)], cache=cache) == []

    def test_rule_selection_part_of_key(self, tmp_path):
        cache = ResultCache(tmp_path / "c.json")
        f = tmp_path / "m.py"
        f.write_text("import random\n", encoding="utf-8")
        all_rules = lint_paths([str(f)], cache=cache)
        only_u1 = lint_paths([str(f)], rules=["U1"], cache=cache)
        assert all_rules and only_u1 == []

    def test_corrupt_cache_raises_cache_error(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{broken", encoding="utf-8")
        with pytest.raises(CacheError):
            ResultCache(p)

    def test_exclude_globs(self, tmp_path):
        keep = tmp_path / "keep.py"
        skip = tmp_path / "skip_me.py"
        keep.write_text("import random\n", encoding="utf-8")
        skip.write_text("import random\n", encoding="utf-8")
        findings = lint_paths([str(tmp_path)], exclude=["skip_*"])
        assert {Path(f.path).name for f in findings} == {"keep.py"}


# =============================================================== clean tree
class TestCleanTree:
    def test_new_rules_clean_on_src(self):
        repo = Path(__file__).resolve().parent.parent
        findings = lint_paths(
            [str(repo / "src" / "repro")], rules=["D2", "U2", "C2", "P1"]
        )
        assert findings == []

    def test_tests_and_benchmarks_clean(self):
        repo = Path(__file__).resolve().parent.parent
        findings = lint_paths(
            [str(repo / "tests"), str(repo / "benchmarks")],
            exclude=["*/fixtures/lint/*"],
        )
        assert findings == []
