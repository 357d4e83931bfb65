"""Experiment harness: runners, figure specs, reporting, expectations.

Every name below loads its module on first use (:mod:`repro._lazy`), so
importing one harness module does not load the others.
"""

from .._lazy import lazy_surface

__all__, __getattr__, __dir__ = lazy_surface(__name__, {
    ".experiments": (
        "FIGURES", "FigureResult", "FigureSpec", "SERIES_BASELINE",
        "SERIES_R1A", "SERIES_R2A", "SERIES_R2A1M", "SERIES_REESE",
        "figure2_spec", "figure3_spec", "figure4_spec", "figure5_spec",
        "figure7_specs", "run_figure", "run_summary_figure",
    ),
    ".expectations": ("Expectation", "check_all"),
    ".campaign": (
        "CampaignResult", "MismatchRecord", "OracleMismatch", "SiteSample",
        "run_campaign", "run_site_campaign", "sample_sites",
    ),
    ".parallel": (
        "FaultSpec", "ParallelRunner", "ResultCache", "RunTelemetry",
        "SimJob", "WorkerLostError", "derive_seed", "interval_fault_spec",
        "job_fingerprint", "parallel_map",
    ),
    ".reporting": (
        "analysis_report", "figure_report", "format_table", "lint_report",
        "markdown_table", "overhead_summary", "profile_report",
        "summary_report", "telemetry_report",
    ),
    ".telemetry": (
        "TELEMETRY_SCHEMA_VERSION", "atomic_write_text", "read_job_telemetry",
        "write_job_telemetry",
    ),
    "..env": ("env_flag", "env_int"),
    ".runner": (
        "DEFAULT_SCALE", "bench_scale", "run_benchmark", "run_model",
    ),
    ".sweep": ("SweepPoint", "run_sweep", "spare_capacity_grid"),
})
