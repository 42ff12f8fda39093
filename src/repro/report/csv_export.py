"""CSV export of experiment results.

Every figure driver returns structured dataclasses; these helpers
flatten them into CSV files the way the paper's artifact does, so the
data can be re-plotted with any external tool.  A small JSON manifest
accompanies each export describing the series and their units.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.soc.executor import SocRunResult


class CsvExportError(ValueError):
    """Raised for malformed export requests."""


Row = Mapping[str, Union[str, int, float]]


def export_rows(
    path: Union[str, Path],
    rows: Sequence[Row],
    *,
    fieldnames: Optional[Sequence[str]] = None,
) -> Path:
    """Write dict-rows as one CSV file; returns the written path."""
    path = Path(path)
    rows = list(rows)
    if not rows:
        raise CsvExportError(f"nothing to export to {path}")
    if fieldnames is None:
        fieldnames = list(rows[0].keys())
    missing = [f for f in fieldnames if f not in rows[0]]
    if missing:
        raise CsvExportError(f"fieldnames {missing} absent from rows")
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(fieldnames))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in fieldnames})
    return path


def export_figure(
    out_dir: Union[str, Path],
    figure_id: str,
    series: Mapping[str, Sequence[Row]],
    *,
    description: str = "",
) -> Dict[str, Path]:
    """Export a figure as one CSV per series plus a JSON manifest.

    ``series`` maps a series name (e.g. ``"1-way"``) to its rows.
    Returns the mapping of series name to written file.
    """
    out_dir = Path(out_dir)
    if not series:
        raise CsvExportError(f"figure {figure_id!r} has no series")
    written: Dict[str, Path] = {}
    for name, rows in series.items():
        safe = name.replace("/", "_").replace(" ", "_")
        written[name] = export_rows(
            out_dir / f"{figure_id}_{safe}.csv", rows
        )
    manifest = {
        "figure": figure_id,
        "description": description,
        "series": {name: str(p.name) for name, p in written.items()},
    }
    manifest_path = out_dir / f"{figure_id}_manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    written["__manifest__"] = manifest_path
    return written


def export_soc_run(
    out_dir: Union[str, Path],
    run: SocRunResult,
    *,
    tag: str = "run",
    n_points: int = 500,
) -> Dict[str, Path]:
    """Export one SoC run the way the artifact's RTL flow does.

    Produces three CSVs: the aggregate power trace, the per-task
    timeline, and the per-tile frequency traces — the inputs the
    artifact's ``post_process.py`` consumes.
    """
    out_dir = Path(out_dir)
    times_us, power = run.power_series(n_points)
    power_rows = [
        {"time_us": float(t), "power_mw": float(p)}
        for t, p in zip(times_us, power)
    ]
    tasks_rows = [
        {
            "task": name,
            "start_us": run.task_start_cycles.get(name, 0) * 1.25e-3,
            "finish_us": finish * 1.25e-3,
        }
        for name, finish in sorted(run.task_finish_cycles.items())
    ]
    freq_rows: List[Dict[str, Union[str, float]]] = []
    for tid in run.managed_tiles:
        trace = run.recorder.get(f"freq/{tid}")
        if trace is None:
            continue
        for t, f in trace:
            freq_rows.append(
                {"tile": tid, "time_us": t * 1.25e-3, "freq_mhz": f / 1e6}
            )
    out = {
        "power": export_rows(out_dir / f"{tag}_power.csv", power_rows),
        "tasks": export_rows(out_dir / f"{tag}_tasks.csv", tasks_rows),
    }
    if freq_rows:
        out["freq"] = export_rows(out_dir / f"{tag}_freq.csv", freq_rows)
    meta = {
        "soc": run.soc_name,
        "pm": run.pm_name,
        "budget_mw": run.budget_mw,
        "makespan_us": run.makespan_us,
        "mean_response_us": run.mean_response_us,
        "peak_power_mw": run.peak_power_mw(),
        "average_power_mw": run.average_power_mw(),
    }
    meta_path = Path(out_dir) / f"{tag}_meta.json"
    meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True))
    out["meta"] = meta_path
    return out


def fig03_series(result) -> Dict[str, List[Row]]:
    """Flatten a Fig. 3 result into exportable series."""
    return {
        technique: [
            {
                "d": p.d,
                "n_tiles": p.d * p.d,
                "mean_cycles": p.mean_cycles,
                "mean_packets": p.mean_packets,
                "converged_fraction": p.converged_fraction,
            }
            for p in pts
        ]
        for technique, pts in result.points.items()
    }


def fig04_series(result) -> Dict[str, List[Row]]:
    """Flatten a Fig. 4 result into exportable series."""
    return {
        scheme: [
            {
                "d": p.d,
                "mean_cycles": p.mean,
                "median_cycles": p.median,
                "p95_cycles": p.p95,
                "converged_fraction": p.converged_fraction,
            }
            for p in pts
        ]
        for scheme, pts in result.points.items()
    }
