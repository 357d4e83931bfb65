"""CLI + reporting surface of the cycle-accounting profiler.

Parser wiring for ``--profile``/``--telemetry`` and the ``profile``
subcommand, an end-to-end subcommand run at smoke scale, and the
``profile_report`` renderer over fabricated Stats.
"""

import pytest

from repro.harness.cli import build_parser, main
from repro.harness.experiments import (
    SERIES_BASELINE,
    SERIES_R2A,
    SERIES_REESE,
)
from repro.harness.reporting import metrics_report, profile_report
from repro.uarch.stats import Stats


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


class TestParser:
    def test_profile_flag_default_off(self):
        args = build_parser().parse_args(["list"])
        assert not args.profile
        assert args.telemetry is None

    def test_profile_and_telemetry_flags(self):
        args = build_parser().parse_args(
            ["--profile", "--telemetry", "out.jsonl", "list"]
        )
        assert args.profile
        assert args.telemetry == "out.jsonl"

    def test_profile_subcommand_defaults_to_suite(self):
        args = build_parser().parse_args(["profile"])
        assert args.command == "profile"
        assert args.benchmark == "all"
        assert not args.markdown

    def test_profile_subcommand_validates_benchmark(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile", "mcf"])


class TestProfileSubcommand:
    def test_end_to_end(self, capsys):
        rc = main(["--scale", "400", "--jobs", "1", "profile", "go"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "cycle-accounting profile" in out
        assert "issued_r" in out
        assert "accounting identity: OK on 3/3 cells" in out
        assert "detection latency" in out

    def test_markdown_mode(self, capsys):
        rc = main(["--scale", "400", "--jobs", "1",
                   "profile", "go", "--markdown"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "| cause |" in out
        assert "### go" in out

    def test_bench_with_profile_flag_populates_accounting(self, capsys):
        rc = main(["--scale", "400", "--profile", "bench", "go"])
        assert rc == 0
        assert "IPC ratio" in capsys.readouterr().out


def _fake_stats(width, cycles, slots):
    stats = Stats()
    stats.cycles = cycles
    stats.committed = cycles * 2
    stats.accounting = {
        "schema": 2,
        "width": width,
        "cycles_total": cycles,
        "slots_total": width * cycles,
        "slots": dict(slots),
        "cycles": {"active": cycles},
    }
    return stats


class TestProfileReport:
    def _results(self):
        base = _fake_stats(4, 100, {"issued_p": 200, "ruu_full": 200})
        reese = _fake_stats(4, 150, {"issued_p": 200, "issued_r": 200,
                                     "fu_busy_r": 150, "ruu_full": 50})
        reese.detect_latency = {"3": 5, "8": 5}
        r2a = _fake_stats(4, 110, {"issued_p": 200, "issued_r": 200,
                                   "ruu_full": 40})
        return {"go": {SERIES_BASELINE: base, SERIES_REESE: reese,
                       SERIES_R2A: r2a}}

    def test_text_report(self):
        report = profile_report(self._results(), 400)
        assert "accounting identity: OK on 3/3 cells" in report
        # Positive deltas: issued_r 200 + fu_busy_r 150 + the 200 extra
        # cycles' worth of... (only slot causes count): 350 total, all R.
        assert "350 slots lost, 350 (100.0%)" in report
        assert "p99=8" in report

    def test_identity_violation_reported(self):
        results = self._results()
        results["go"][SERIES_REESE].accounting["slots"]["issued_p"] += 7
        report = profile_report(results, 400)
        assert "accounting identity: VIOLATED" in report
        assert "go/REESE" in report

    def test_markdown_report(self):
        report = profile_report(self._results(), 400, markdown=True)
        assert report.startswith("## cycle-accounting profile")
        assert "| cause |" in report


class TestMetricsReportGuards:
    def test_tolerates_partial_registry(self):
        stats = Stats()
        stats.stage_metrics = {"cycles_sampled": 3}  # no occupancy
        report = metrics_report(stats)
        assert "over 3 cycles" in report and "FU issues" in report

    def test_placeholder_when_unobserved(self):
        assert "not observed" in metrics_report(Stats())
