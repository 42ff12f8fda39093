"""Result export and post-processing (the paper's artifact workflow).

The artifact appendix describes the evaluation outputs as "CSV data
with post-processing scripts for figure generation".  This package
reproduces that workflow:

* :mod:`~repro.report.csv_export` — write any experiment result as CSV
  files (one per series), with a manifest describing the figure.
* :mod:`~repro.report.post_process` — the artifact's
  ``post_process.py`` equivalent: reconstruct power traces from the
  frequency traces of a recorded SoC run, and its throughput per watt.
* :mod:`~repro.report.campaign_export` — flatten a campaign run
  (``repro.campaign``) into one CSV row per seeded trial.
* :mod:`~repro.report.run_report` — the frozen canonical-JSON per-run
  scorecard (config hash, summary stats, monitor alerts, per-tile
  accounting), written atomically.
* :mod:`~repro.report.diff` — compare two RunReports against a
  threshold policy; the regression gate behind ``blitzcoin-repro diff``.
* :mod:`~repro.report.dashboard` — render one RunReport as a single
  self-contained HTML file (inline CSS/SVG, no external references).
"""

from repro.report.campaign_export import campaign_rows, export_campaign_csv
from repro.report.csv_export import (
    CsvExportError,
    export_figure,
    export_rows,
    export_soc_run,
)
from repro.report.dashboard import render_dashboard, write_dashboard
from repro.report.diff import (
    DEFAULT_THRESHOLDS,
    DiffError,
    DiffRow,
    ReportDiff,
    ThresholdRule,
    Thresholds,
    diff_reports,
    format_diff_table,
    load_thresholds,
)
from repro.report.post_process import reconstruct_power_trace
from repro.report.run_report import (
    REPORT_SCHEMA,
    ReportError,
    RunReport,
    campaign_report,
    convergence_report,
    load_run_report,
    soc_report,
    write_run_report,
)

__all__ = [
    "DEFAULT_THRESHOLDS",
    "REPORT_SCHEMA",
    "CsvExportError",
    "DiffError",
    "DiffRow",
    "ReportDiff",
    "ReportError",
    "RunReport",
    "ThresholdRule",
    "Thresholds",
    "campaign_report",
    "campaign_rows",
    "convergence_report",
    "diff_reports",
    "export_campaign_csv",
    "export_figure",
    "export_rows",
    "export_soc_run",
    "format_diff_table",
    "load_run_report",
    "load_thresholds",
    "reconstruct_power_trace",
    "render_dashboard",
    "soc_report",
    "write_dashboard",
    "write_run_report",
]
