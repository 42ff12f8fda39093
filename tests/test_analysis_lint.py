"""Tests for blitzlint: every rule, suppression, scoping, and output."""

import json
from pathlib import Path

import pytest

from repro.analysis.__main__ import main as lint_main
from repro.analysis.lint import (
    RULES,
    LintError,
    lint_paths,
    lint_source,
    render_json,
    render_text,
)

FIXTURES = Path(__file__).parent / "fixtures" / "lint"


def codes(findings):
    return sorted({f.code for f in findings})


class TestRuleD1Determinism:
    def test_import_random_flagged(self):
        findings = lint_source("import random\n", module="repro.power.x")
        assert codes(findings) == ["D1"]

    def test_from_random_import_flagged(self):
        findings = lint_source(
            "from random import choice\n", module="repro.power.x"
        )
        assert codes(findings) == ["D1"]

    def test_wall_clock_flagged(self):
        src = "import time\n\ndef stamp():\n    return time.time()\n"
        findings = lint_source(src, module="repro.report.x")
        assert codes(findings) == ["D1"]
        assert "wall-clock" in findings[0].message

    def test_datetime_now_flagged(self):
        src = (
            "from datetime import datetime\n\n"
            "def stamp():\n    return datetime.now()\n"
        )
        findings = lint_source(src, module="repro.report.x")
        assert codes(findings) == ["D1"]

    def test_global_numpy_rng_flagged(self):
        src = "import numpy as np\nx = np.random.randint(0, 4)\n"
        findings = lint_source(src, module="repro.core.x")
        assert codes(findings) == ["D1"]

    def test_unseeded_default_rng_flagged(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        findings = lint_source(src, module="repro.core.x")
        assert codes(findings) == ["D1"]

    def test_seeded_default_rng_allowed(self):
        src = "import numpy as np\nrng = np.random.default_rng(42)\n"
        assert lint_source(src, module="repro.core.x") == []

    def test_seeded_generator_construction_allowed(self):
        src = (
            "import numpy as np\n"
            "g = np.random.Generator(np.random.PCG64(np.random.SeedSequence(1)))\n"
        )
        assert lint_source(src, module="repro.core.x") == []

    def test_rng_module_is_exempt(self):
        src = "import numpy as np\nx = np.random.default_rng()\n"
        assert lint_source(src, module="repro.sim.rng") == []

    def test_set_iteration_flagged_in_scheduling_code(self):
        src = "def fire(tiles):\n    for t in set(tiles):\n        t.go()\n"
        findings = lint_source(src, module="repro.core.engine2")
        assert codes(findings) == ["D1"]
        assert "hash order" in findings[0].message

    def test_keys_iteration_flagged_in_scheduling_code(self):
        src = "def fire(d):\n    return [k for k in d.keys()]\n"
        findings = lint_source(src, module="repro.noc.x")
        assert codes(findings) == ["D1"]

    def test_sorted_set_iteration_allowed(self):
        src = (
            "def fire(tiles):\n"
            "    for t in sorted(set(tiles)):\n        t.go()\n"
        )
        assert lint_source(src, module="repro.core.x") == []

    def test_set_iteration_not_flagged_outside_scheduling_packages(self):
        src = "def tally(xs):\n    return [x for x in set(xs)]\n"
        assert lint_source(src, module="repro.workloads.x") == []

    def test_set_iteration_flagged_in_report_scope(self):
        # repro.report produces byte-stable artifacts, so it lives in
        # the D1 ordered-iteration scope alongside the simulator core.
        src = "def tally(xs):\n    return [x for x in set(xs)]\n"
        assert [f.code for f in lint_source(src, module="repro.report.x")] == ["D1"]
        assert [f.code for f in lint_source(src, module="repro.obs.monitor")] == ["D1"]

    def test_set_membership_allowed(self):
        src = "def check(t, tiles):\n    return t in set(tiles)\n"
        assert lint_source(src, module="repro.core.x") == []


class TestRuleC1CoinIntegrality:
    def test_true_division_flagged(self):
        src = "def share(a, b):\n    return a / b\n"
        findings = lint_source(src, module="repro.core.coins")
        assert codes(findings) == ["C1"]

    def test_float_literal_flagged(self):
        src = "EPS = 1e-12\n"
        findings = lint_source(src, module="repro.core.coins")
        assert codes(findings) == ["C1"]

    def test_float_equality_flagged(self):
        src = "def f(x):\n    return x == 0.0\n"
        findings = lint_source(src, module="repro.core.coins")
        # the 0.0 literal and the comparison are both findings
        assert codes(findings) == ["C1"]
        assert len(findings) == 2

    def test_floor_division_allowed(self):
        src = "def share(a, b):\n    return (2 * a + b) // (2 * b)\n"
        assert lint_source(src, module="repro.core.coins") == []

    def test_engine_delta_helpers_in_scope(self):
        src = (
            "class E:\n"
            "    def _apply_delta(self, tid, delta):\n"
            "        self.err = delta / 2\n"
        )
        findings = lint_source(src, module="repro.core.engine")
        assert codes(findings) == ["C1"]

    def test_engine_non_delta_code_out_of_scope(self):
        src = (
            "class E:\n"
            "    def _finish_exchange(self, tid):\n"
            "        self.interval = int(self.interval * 2.0)\n"
        )
        assert lint_source(src, module="repro.core.engine") == []

    def test_other_modules_out_of_scope(self):
        src = "def mean(xs):\n    return sum(xs) / len(xs)\n"
        assert lint_source(src, module="repro.core.metrics") == []


class TestRuleS1StateDiscipline:
    def test_handler_writing_coin_register_flagged(self):
        src = (
            "class E:\n"
            "    def _on_status(self, pkt):\n"
            "        self.fsm.coins.has += pkt.delta\n"
        )
        findings = lint_source(src, module="repro.core.engine")
        assert codes(findings) == ["S1"]

    def test_apply_delta_is_blessed(self):
        src = (
            "class E:\n"
            "    def _apply_delta(self, tid, delta):\n"
            "        self.fsm.coins.has += delta\n"
        )
        assert lint_source(src, module="repro.core.engine") == []

    def test_set_max_is_blessed(self):
        src = (
            "class E:\n"
            "    def set_max(self, tid, new_max):\n"
            "        self.fsm.coins.max = new_max\n"
        )
        assert lint_source(src, module="repro.core.engine") == []

    def test_replacing_coins_object_flagged(self):
        src = (
            "class E:\n"
            "    def _on_update(self, pkt):\n"
            "        self.fsm.coins = pkt.payload\n"
        )
        findings = lint_source(src, module="repro.core.engine")
        assert codes(findings) == ["S1"]

    def test_out_of_scope_module_ignored(self):
        src = (
            "class V:\n"
            "    def poke(self):\n"
            "        self.tile.coins.has = 0\n"
        )
        assert lint_source(src, module="repro.soc.executor") == []


class TestRuleU1Units:
    def test_time_function_without_unit_flagged(self):
        src = "def latency(a, b):\n    \"\"\"Latency between tiles.\"\"\"\n    return 1\n"
        findings = lint_source(src, module="repro.noc.x")
        assert codes(findings) == ["U1"]

    def test_unit_in_docstring_allowed(self):
        src = (
            "def latency(a, b):\n"
            "    \"\"\"Latency between tiles, in NoC cycles.\"\"\"\n"
            "    return 1\n"
        )
        assert lint_source(src, module="repro.noc.x") == []

    def test_private_functions_exempt(self):
        src = "def _latency(a, b):\n    return 1\n"
        assert lint_source(src, module="repro.noc.x") == []

    def test_functions_not_about_time_exempt(self):
        src = "def hop_distance(a, b):\n    \"\"\"Manhattan hops.\"\"\"\n    return 1\n"
        assert lint_source(src, module="repro.noc.x") == []

    def test_out_of_scope_package_exempt(self):
        src = "def latency(a, b):\n    \"\"\"Latency.\"\"\"\n    return 1\n"
        assert lint_source(src, module="repro.workloads.x") == []


class TestSuppression:
    def test_same_line_pragma_suppresses(self):
        src = "EPS = 1e-12  # blitzlint: disable=C1\n"
        assert lint_source(src, module="repro.core.coins") == []

    def test_pragma_is_code_specific(self):
        src = "EPS = 1e-12  # blitzlint: disable=U1\n"
        findings = lint_source(src, module="repro.core.coins")
        assert codes(findings) == ["C1"]

    def test_disable_all(self):
        src = "import random  # blitzlint: disable=all\n"
        assert lint_source(src, module="repro.core.x") == []

    def test_multiple_codes(self):
        src = "EPS = 1e-12  # blitzlint: disable=C1,D1\n"
        assert lint_source(src, module="repro.core.coins") == []


class TestScoping:
    def test_scope_pragma_overrides_path(self):
        src = (
            "# blitzlint: scope=repro.core.coins\n"
            "x = 1 / 2\n"
        )
        findings = lint_source(src, path="/tmp/whatever.py")
        assert codes(findings) == ["C1"]

    def test_path_derived_module(self):
        findings = lint_source(
            "import random\n", path="src/repro/core/engine.py"
        )
        assert codes(findings) == ["D1"]


class TestFrontEnd:
    def test_syntax_error_raises(self):
        with pytest.raises(LintError, match="syntax error"):
            lint_source("def broken(:\n")

    def test_unknown_rule_raises(self):
        with pytest.raises(LintError, match="unknown rule"):
            lint_source("x = 1\n", rules=["Z9"])

    def test_missing_path_raises(self):
        with pytest.raises(LintError, match="no such path"):
            lint_paths(["/nonexistent/nowhere.py"])

    def test_rule_filter(self):
        src = "import random\nEPS = 1e-12\n"
        findings = lint_source(
            src, module="repro.core.coins", rules=["C1"]
        )
        assert codes(findings) == ["C1"]


class TestFixtureFiles:
    """The four acceptance fixtures each trip exactly their rule."""

    @pytest.mark.parametrize(
        "name,code",
        [
            ("bad_d1.py", "D1"),
            ("bad_d2.py", "D2"),
            ("bad_c1.py", "C1"),
            ("bad_c2.py", "C2"),
            ("bad_s1.py", "S1"),
            ("bad_u1.py", "U1"),
            ("bad_u2.py", "U2"),
            ("bad_p1.py", "P1"),
        ],
    )
    def test_fixture_trips_its_rule(self, name, code, capsys):
        rc = lint_main(["--format", "json", str(FIXTURES / name)])
        assert rc == 1
        report = json.loads(capsys.readouterr().out)
        assert report["count"] >= 1
        assert code in {f["code"] for f in report["findings"]}

    def test_clean_tree_exits_zero(self, capsys):
        repo_src = Path(__file__).parent.parent / "src" / "repro"
        rc = lint_main([str(repo_src)])
        assert rc == 0
        assert "clean" in capsys.readouterr().out


class TestOutput:
    def test_json_schema(self):
        findings = lint_source("import random\n", module="repro.core.x")
        report = json.loads(render_json(findings))
        assert report["version"] == 1
        assert report["tool"] == "blitzlint"
        assert report["count"] == len(findings) == 1
        entry = report["findings"][0]
        assert set(entry) == {
            "path", "line", "col", "code", "rule", "message"
        }
        assert entry["code"] == "D1"
        assert entry["rule"] == RULES["D1"]
        assert entry["line"] == 1

    def test_text_output(self):
        findings = lint_source("import random\n", module="repro.core.x")
        text = render_text(findings)
        assert "D1" in text
        assert "1 finding(s)" in text
        assert render_text([]) == "blitzlint: clean"

    def test_cli_error_exit_code(self, capsys):
        rc = lint_main(["/nonexistent/nowhere.py"])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestCliIntegration:
    def test_repro_cli_lint_subcommand(self, capsys):
        from repro.cli import main

        repo_src = Path(__file__).parent.parent / "src" / "repro"
        rc = main(["lint", str(repo_src), "--format", "json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["count"] == 0
