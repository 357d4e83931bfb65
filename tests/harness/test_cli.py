"""Tests for the command-line interface."""

import pytest

from repro.harness.cli import build_parser, main


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    """Commands default to caching; keep test cache out of the repo."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_scale_flag(self):
        args = build_parser().parse_args(["--scale", "500", "list"])
        assert args.scale == 500

    def test_jobs_and_cache_flags(self):
        args = build_parser().parse_args(
            ["--jobs", "4", "--no-cache", "list"]
        )
        assert args.jobs == 4
        assert args.no_cache

    def test_jobs_defaults_to_all_cores(self):
        args = build_parser().parse_args(["list"])
        assert args.jobs is None
        assert not args.no_cache

    def test_bench_validates_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "mcf"])

    def test_figure_validates_id(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig9"])

    def test_sample_flags(self):
        args = build_parser().parse_args(
            ["--sample", "20", "--sample-interval", "250",
             "--sample-warmup", "60", "list"]
        )
        assert args.sample == 20
        assert args.sample_interval == 250
        assert args.sample_warmup == 60

    def test_sample_defaults_off(self):
        args = build_parser().parse_args(["list"])
        assert args.sample is None
        assert args.sample_interval == 300
        assert args.sample_warmup == 50


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "gcc" in out and "vortex" in out
        assert "scrabbl.pl" in out  # Table 2 provenance

    def test_bench(self, capsys):
        assert main(["--scale", "1200", "bench", "go"]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "reese" in out
        assert "IPC ratio" in out

    def test_faults(self, capsys):
        code = main([
            "--scale", "1500", "faults",
            "--benchmark", "vortex", "--rate", "0.002", "--duration", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "errors detected" in out

    def test_faults_matches_a_live_model_run_and_caches(self, capsys):
        from repro.harness.runner import run_model
        from repro.reese import EnvironmentalFaultModel
        from repro.uarch import starting_config
        from repro.workloads.suite import trace_for

        argv = ["--scale", "1500", "faults", "--benchmark", "vortex",
                "--rate", "0.002", "--duration", "2"]
        assert main(argv) == 0
        cold = capsys.readouterr()
        model = EnvironmentalFaultModel(rate=0.002, duration=2, seed=2001)
        program, trace = trace_for("vortex", 1500)
        stats = run_model(program, trace, starting_config().with_reese(),
                          fault_model=model)
        assert model.strikes > 0
        assert cold.out == (
            f"workload:            vortex\n"
            f"fault events struck: {model.strikes}\n"
            f"errors detected:     {stats.errors_detected}\n"
            f"escapes (same event):{stats.errors_undetected_same_event}\n"
            f"recoveries:          {stats.recoveries}\n"
            f"final IPC:           {stats.ipc:.3f}\n"
        )
        assert main(argv) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out
        assert "(1 cache hits, 0 simulated)" in warm.err

    def test_figure_runs_small(self, capsys, monkeypatch):
        # Keep runtime sane: tiny scale; full 6-benchmark figure.
        assert main(["--scale", "800", "figure", "fig2"]) == 0
        out = capsys.readouterr().out
        assert "AV." in out
        assert "Baseline" in out

    def test_figure_parallel_matches_sequential(self, capsys):
        assert main(["--scale", "800", "--jobs", "1", "--no-cache",
                     "figure", "fig2"]) == 0
        sequential = capsys.readouterr().out
        assert main(["--scale", "800", "--jobs", "2", "--no-cache",
                     "figure", "fig2"]) == 0
        parallel = capsys.readouterr().out
        assert sequential == parallel

    def test_figure_telemetry_on_stderr(self, capsys):
        assert main(["--scale", "800", "--jobs", "2", "figure", "fig2"]) == 0
        captured = capsys.readouterr()
        assert "[parallel]" in captured.err

    def test_bench_sampled(self, capsys):
        assert main(["--scale", "2000", "--sample", "4",
                     "--sample-interval", "120", "bench", "li"]) == 0
        out = capsys.readouterr().out
        assert "sampled 4x120" in out
        assert "IPC ratio" in out

    def test_figure_sampled_parallel_matches_sequential(self, capsys):
        base = ["--scale", "1500", "--no-cache", "--sample", "3",
                "--sample-interval", "100"]
        assert main(base + ["--jobs", "1", "figure", "fig2"]) == 0
        sequential = capsys.readouterr().out
        assert main(base + ["--jobs", "2", "figure", "fig2"]) == 0
        parallel = capsys.readouterr().out
        assert sequential == parallel

    def test_faults_sampled(self, capsys):
        code = main([
            "--scale", "1500", "--sample", "3", "--sample-interval", "100",
            "faults", "--benchmark", "vortex", "--rate", "0.002",
            "--duration", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "errors detected" in out
        assert "sampled 3x100" in out

    def test_faults_reports_a_machine_stop(self, capsys, tmp_path):
        # REESE's retry budget runs out in an interval run in a pool
        # worker: one line on stdout, exit 1, nothing cached.
        code = main([
            "--scale", "6000", "--sample", "4", "--sample-interval", "150",
            "--sample-warmup", "400", "faults", "--benchmark", "li",
            "--rate", "0.02", "--duration", "2",
        ])
        assert code == 1
        assert capsys.readouterr().out == (
            "instruction #130 failed P/R comparison 3 times; fault is not "
            "transient — machine stopped\n"
        )
        assert list(tmp_path.rglob("*.json")) == []

    def test_observe_prints_metrics_after_faults(self, capsys):
        assert main(["--scale", "1500", "--observe", "faults",
                     "--benchmark", "vortex"]) == 0
        out = capsys.readouterr().out
        assert "errors detected" in out
        assert "[reese] stage metrics over" in out

    def test_observe_prints_metrics_after_sampled_bench(self, capsys):
        assert main(["--scale", "2000", "--sample", "4",
                     "--sample-interval", "120", "--observe", "bench",
                     "li"]) == 0
        out = capsys.readouterr().out
        assert "sampled 4x120" in out
        assert "[baseline] stage metrics over" in out
        assert "[reese] stage metrics over" in out

    def test_trace_with_sample_is_a_usage_error(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        with pytest.raises(SystemExit) as stop:
            main(["--sample", "4", "--sample-interval", "120",
                  "--trace", str(trace), "bench", "li"])
        assert stop.value.code == 2
        assert "--trace cannot be combined with --sample" in \
            capsys.readouterr().err
        assert not trace.exists()

    def test_sweep_runs_small(self, capsys):
        assert main(["--scale", "600", "--jobs", "2", "sweep",
                     "--max-alu", "0", "--max-mult", "0"]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out
        assert "reese+0alu+0mult" in out

    def test_campaign_runs_small(self, capsys):
        assert main(["--scale", "2500", "--jobs", "2", "campaign", "gcc",
                     "--runs", "8"]) == 0
        out = capsys.readouterr().out
        assert "fault campaign" in out

    def test_campaign_static_oracle(self, capsys):
        assert main(["--scale", "1000", "campaign", "gcc",
                     "--static-oracle", "--runs", "10", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "site campaign" in out
        assert "oracle: 0 mismatches" in out

    def test_campaign_skip_dead(self, capsys):
        assert main(["--scale", "1000", "campaign", "gcc",
                     "--skip-dead", "--runs", "10"]) == 0
        out = capsys.readouterr().out
        assert "settled statically" in out

    def test_campaign_sites_export(self, capsys, tmp_path):
        out_dir = str(tmp_path / "results")
        assert main(["--scale", "1000", "campaign", "gcc", "--sites",
                     "--runs", "6", "--export", out_dir]) == 0
        out = capsys.readouterr().out
        assert "wrote json" in out and "wrote csv" in out

    def test_campaign_export_without_sites(self, capsys, tmp_path):
        import csv
        import json

        from repro.harness.campaign import run_campaign
        from repro.workloads.suite import BENCHMARKS

        out_dir = tmp_path / "results"
        assert main(["--scale", "1000", "campaign", "gcc", "--runs", "6",
                     "--export", str(out_dir)]) == 0
        assert "wrote json" in capsys.readouterr().out
        program = BENCHMARKS["gcc"].build(scale=1000)
        result = run_campaign(program, runs=6, rate=2e-3, seed=0)
        stem = out_dir / f"campaign_{program.name}"
        data = json.loads(stem.with_suffix(".json").read_text())
        assert data["runs"] == result.runs == 6
        assert data["rate"] == 2e-3
        assert data["injections"] == result.injections
        assert data["emulations"] == result.emulations == 6
        assert {k: v for k, v in data["outcomes"].items() if v} \
            == dict(result.outcomes)
        rows = list(csv.DictReader(
            stem.with_suffix(".csv").read_text().splitlines()))
        assert len(rows) == 1
        assert {k: int(v) for k, v in rows[0].items()
                if k not in ("class", "pool", "visible") and int(v)} \
            == dict(result.outcomes)

    def test_oracle_and_skip_dead_are_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["campaign", "gcc", "--static-oracle", "--skip-dead"]
            )

    def test_analyze(self, capsys):
        assert main(["--scale", "1000", "analyze", "gcc"]) == 0
        out = capsys.readouterr().out
        assert "static analysis" in out
        assert "site class" in out

    def test_analyze_all_covers_suite(self, capsys):
        from repro.workloads.suite import BENCHMARK_ORDER, BENCHMARKS

        assert main(["--scale", "1000", "analyze", "all"]) == 0
        out = capsys.readouterr().out
        for name in BENCHMARK_ORDER:
            assert BENCHMARKS[name].build(scale=1000).name in out

    def test_analyze_second_run_is_cached(self, capsys):
        assert main(["--scale", "1000", "analyze", "go"]) == 0
        capsys.readouterr()
        assert main(["--scale", "1000", "analyze", "go"]) == 0
        assert "(cached;" in capsys.readouterr().out

    def test_lint_suite_is_clean(self, capsys):
        assert main(["--scale", "1000", "lint", "all"]) == 0
        out = capsys.readouterr().out
        assert "NOT CLEAN" not in out

    def test_lint_verbose_shows_info(self, capsys):
        assert main(["--scale", "1000", "lint", "gcc",
                     "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "hidden" not in out
