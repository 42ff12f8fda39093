"""Tests for the artifact-style results-export script."""

import csv
import json
import runpy
import sys
from pathlib import Path

SCRIPT = Path("scripts/export_results.py")


def run_script(args):
    old = sys.argv
    sys.argv = [str(SCRIPT), *args]
    try:
        runpy.run_path(str(SCRIPT), run_name="__main__")
    except SystemExit as exc:
        return exc.code
    finally:
        sys.argv = old
    return 0


class TestExportScript:
    def test_exports_cheap_figures(self, tmp_path):
        rc = run_script(
            ["--quick", "--out", str(tmp_path), "--only", "fig01", "fig13"]
        )
        assert rc == 0
        manifest = json.loads(
            (tmp_path / "fig01_manifest.json").read_text()
        )
        assert manifest["figure"] == "fig01"
        csvs = list(tmp_path.glob("fig13_*.csv"))
        assert len(csvs) == 6  # one per accelerator class

    def test_csv_contents_parse(self, tmp_path):
        run_script(
            ["--quick", "--out", str(tmp_path), "--only", "fig13"]
        )
        with (tmp_path / "fig13_FFT.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[0]["v"]) == 0.5
        assert float(rows[-1]["v"]) == 1.0

    def test_unknown_figure_rejected(self, tmp_path):
        rc = run_script(["--out", str(tmp_path), "--only", "fig99"])
        assert rc != 0
