"""CLI tests for the ``fuzz`` subcommand family and its error paths.

Error paths must exit with code 2 and a one-line stderr message —
never a traceback.  The happy paths double as the end-to-end check of
the replay contract: ``fuzz run`` files a repro bundle, ``fuzz
replay`` reproduces it bit-identically, ``fuzz shrink`` minimizes it
in place.
"""

import json
import sys

import pytest

from repro.cli import main
from repro.fuzz.cli import parse_seed_spec
from repro.fuzz.corpus import ReproBundle
from repro.fuzz.oracles import run_oracles
from repro.fuzz.scenario import FuzzError, Scenario, SocSection
from tests.test_cli import _ClosedStdout


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def hang_scenario() -> Scenario:
    return Scenario(
        kind="soc",
        seed=2,
        max_cycles=5_000,
        soc=SocSection(
            preset="3x3",
            budget_mw=120,
            tasks=(("a", "FFT", 10_000_000, (), None),),
        ),
    )


def write_hang_bundle(path) -> ReproBundle:
    scenario = hang_scenario()
    outcome = run_oracles(scenario)
    bundle = ReproBundle(
        scenario, outcome.failures[0], outcome.fingerprint
    )
    path.write_text(bundle.to_json())
    return bundle


class TestSeedSpec:
    def test_single_and_range(self):
        assert parse_seed_spec("7") == [7]
        assert parse_seed_spec("3..6") == [3, 4, 5, 6]
        assert parse_seed_spec(" 4 ") == [4]

    @pytest.mark.parametrize(
        "spec", ["banana", "5..x", "6..3", "-1", "1..-2", "0..9999"]
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(FuzzError, match="bad seed spec"):
            parse_seed_spec(spec)


class TestErrorPaths:
    def test_bad_seed_spec_is_rc2_one_line(self, capsys, tmp_path):
        rc, out, err = run_cli(
            capsys,
            ["fuzz", "run", "--seeds", "banana",
             "--corpus", str(tmp_path / "c")],
        )
        assert rc == 2
        assert err.count("\n") == 1
        assert "bad seed spec" in err
        assert "Traceback" not in err

    def test_missing_bundle_is_rc2_one_line(self, capsys, tmp_path):
        rc, out, err = run_cli(
            capsys, ["fuzz", "replay", str(tmp_path / "nope.json")]
        )
        assert rc == 2
        assert err.count("\n") == 1
        assert "cannot read repro bundle" in err

    def test_corrupt_bundle_is_rc2_one_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc, out, err = run_cli(capsys, ["fuzz", "replay", str(bad)])
        assert rc == 2
        assert err.count("\n") == 1
        assert "not valid JSON" in err

    def test_corrupt_corpus_manifest_is_rc2_one_line(self, capsys, tmp_path):
        root = tmp_path / "c"
        root.mkdir()
        (root / "manifest.json").write_text("{broken")
        rc, out, err = run_cli(
            capsys, ["fuzz", "corpus", "--corpus", str(root)]
        )
        assert rc == 2
        assert err.count("\n") == 1
        assert "corrupt corpus manifest" in err

    def test_corrupt_corpus_entry_is_rc2_one_line(self, capsys, tmp_path):
        root = tmp_path / "c"
        rc, _, _ = run_cli(
            capsys,
            ["fuzz", "run", "--seeds", "11", "--budget", "2",
             "--corpus", str(root)],
        )
        assert rc == 0
        manifest = json.loads((root / "manifest.json").read_text())
        digest = sorted(manifest["entries"])[0]
        entry = root / "entries" / f"{digest}.json"
        doc = json.loads(entry.read_text())
        doc["seed"] = 4242  # silent corruption: hash no longer matches
        entry.write_text(json.dumps(doc))
        rc, out, err = run_cli(
            capsys, ["fuzz", "replay", "--corpus", str(root)]
        )
        assert rc == 2
        assert err.count("\n") == 1
        assert "corrupt" in err

    def test_closed_stdout_stops_quietly(self, capsys, tmp_path, monkeypatch):
        """A reader that leaves early is not an error: exit 1, no
        stderr, as for every other command."""
        with open(tmp_path / "stdout", "w") as sink:
            monkeypatch.setattr(sys, "stdout", _ClosedStdout(sink.fileno()))
            rc = main(
                ["fuzz", "run", "--seeds", "0", "--budget", "1",
                 "--corpus", str(tmp_path / "c")]
            )
        assert rc == 1
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("make_dir", [False, True])
    def test_replay_of_missing_corpus_is_rc2_one_line(
        self, capsys, tmp_path, make_dir
    ):
        """A mistyped path or a directory with no manifest must fail,
        not pass as an empty corpus."""
        root = tmp_path / "no-such-corpus"
        if make_dir:
            root.mkdir()
        rc, out, err = run_cli(
            capsys, ["fuzz", "replay", "--corpus", str(root)]
        )
        assert rc == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: no fuzz corpus at ")
        assert "manifest.json is missing" in err

    def test_replay_without_target_is_rc2(self, capsys):
        rc, out, err = run_cli(capsys, ["fuzz", "replay"])
        assert rc == 2
        assert "BUNDLE path or --corpus" in err

    def test_shrink_stale_bundle_is_rc2(self, capsys, tmp_path):
        # bundle whose scenario no longer trips the recorded failure
        scenario = hang_scenario()
        from repro.fuzz.oracles import Failure

        bundle = ReproBundle(
            scenario,
            Failure(oracle="monitor", key="monitor:starvation", detail=""),
            "0" * 32,
        )
        path = tmp_path / "stale.json"
        path.write_text(bundle.to_json())
        rc, out, err = run_cli(capsys, ["fuzz", "shrink", str(path)])
        assert rc == 2
        assert "does not reproduce" in err


class TestHappyPaths:
    def test_run_then_corpus_then_replay(self, capsys, tmp_path):
        root = tmp_path / "c"
        rc, out, _ = run_cli(
            capsys,
            ["fuzz", "run", "--seeds", "11", "--budget", "3",
             "--corpus", str(root)],
        )
        assert rc == 0
        assert "seed 11:" in out
        rc, out, _ = run_cli(
            capsys, ["fuzz", "corpus", "--corpus", str(root)]
        )
        assert rc == 0
        assert "coverage tokens" in out
        rc, out, _ = run_cli(
            capsys, ["fuzz", "replay", "--corpus", str(root)]
        )
        assert rc == 0
        assert "replayed clean" in out

    def test_replay_bundle_reproduces(self, capsys, tmp_path):
        path = tmp_path / "bundle.json"
        write_hang_bundle(path)
        rc, out, _ = run_cli(capsys, ["fuzz", "replay", str(path)])
        assert rc == 0
        assert "reproduced bit-identically" in out

    def test_replay_flags_fingerprint_mismatch(self, capsys, tmp_path):
        path = tmp_path / "bundle.json"
        bundle = write_hang_bundle(path)
        doc = json.loads(path.read_text())
        doc["fingerprint"] = "0" * 32
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        rc, out, err = run_cli(capsys, ["fuzz", "replay", str(path)])
        assert rc == 1
        assert "DID NOT reproduce" in err
        assert bundle.failure.key in out

    def test_shrink_in_place(self, capsys, tmp_path):
        path = tmp_path / "bundle.json"
        write_hang_bundle(path)
        before = path.read_bytes()
        rc, out, _ = run_cli(capsys, ["fuzz", "shrink", str(path)])
        assert rc == 0
        assert "shrunk" in out
        after = ReproBundle.from_json(path.read_text())
        assert after.failure.key == "hang:workload"
        # shrunk output stays a valid, replayable bundle
        rc, out, _ = run_cli(capsys, ["fuzz", "replay", str(path)])
        assert rc == 0
