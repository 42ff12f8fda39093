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

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "campaign_export": ["campaign_rows", "export_campaign_csv"],
        "csv_export": [
            "CsvExportError",
            "export_figure",
            "export_rows",
            "export_soc_run",
        ],
        "dashboard": ["render_dashboard", "write_dashboard"],
        "diff": [
            "DEFAULT_THRESHOLDS",
            "DiffError",
            "DiffRow",
            "ReportDiff",
            "ThresholdRule",
            "Thresholds",
            "diff_reports",
            "format_diff_table",
            "load_thresholds",
        ],
        "post_process": ["reconstruct_power_trace"],
        "run_report": [
            "REPORT_SCHEMA",
            "ReportError",
            "RunReport",
            "campaign_report",
            "convergence_report",
            "load_run_report",
            "soc_report",
            "write_run_report",
        ],
    },
)
