"""Harness plumbing for the observability layer.

The observe module itself is unit-tested in tests/uarch/test_observe.py
and the golden traces in tests/integration/test_trace_goldens.py; this
file covers the glue: runner env gate, SimJob fingerprinting, CLI flags
and the metrics report.
"""

import json

import pytest

from repro.harness.cli import build_parser, main
from repro.harness.parallel import (
    FaultSpec,
    ParallelRunner,
    SimJob,
    job_fingerprint,
)
from repro.harness.reporting import metrics_report
from repro.harness.runner import run_benchmark
from repro.uarch.config import starting_config
from repro.uarch.stats import Stats


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


def _resolved(job):
    return ParallelRunner(jobs=1, use_cache=False).resolve(job)


class TestEnvGate:
    @pytest.fixture(autouse=True)
    def _no_profile_gate(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)

    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECK_INVARIANTS", raising=False)
        job = SimJob("go", starting_config(), 300)
        assert _resolved(job) == job

    @pytest.mark.parametrize("value", ["", "0", "false", "no", "off"])
    def test_disabled_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", value)
        job = SimJob("go", starting_config(), 300)
        assert not _resolved(job).check_invariants

    def test_enabled_for_unfaulted_runs(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        job = _resolved(SimJob("go", starting_config(), 300))
        assert job.check_invariants
        assert not job.observe and not job.profile

    def test_skips_faulted_runs(self, monkeypatch):
        """Fault-injected runs commit corrupted values on purpose; the
        smoke gate must not turn those into invariant failures."""
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        fault = FaultSpec.make("scheduled", events=((0, 5, 1),))
        job = SimJob("go", starting_config(), 300, fault=fault)
        assert not _resolved(job).check_invariants

    def test_gated_benchmark_run_passes(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        stats = run_benchmark("go", starting_config().with_reese(),
                              scale=300)
        assert stats.committed > 0

    def test_gated_run_is_not_served_an_unchecked_entry(self, tmp_path,
                                                        monkeypatch):
        """The gate is part of the cache key: a run cached with the gate
        off must be simulated again, under the checker, with it on."""
        job = SimJob("go", starting_config().with_reese(), 300)
        runner = ParallelRunner(jobs=1, cache_dir=tmp_path / "gate")
        monkeypatch.delenv("REPRO_CHECK_INVARIANTS", raising=False)
        runner.run([job])
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        runner.run([job])
        assert runner.telemetry.cache_hits == 0
        runner.run([job])
        assert runner.telemetry.cache_hits == 1


class TestJobFingerprint:
    def test_observability_is_part_of_the_key(self):
        base = SimJob("go", starting_config(), 300)
        assert job_fingerprint(base) != job_fingerprint(
            SimJob("go", starting_config(), 300, observe=True)
        )
        assert job_fingerprint(base) != job_fingerprint(
            SimJob("go", starting_config(), 300, check_invariants=True)
        )

    def test_trace_path_is_not(self):
        """Trace destination is a side effect, not part of the result."""
        with_path = SimJob("go", starting_config(), 300,
                           trace_path="/tmp/a.jsonl")
        other_path = SimJob("go", starting_config(), 300,
                            trace_path="/tmp/b.jsonl")
        assert job_fingerprint(with_path) == job_fingerprint(other_path)
        assert job_fingerprint(with_path) == job_fingerprint(
            SimJob("go", starting_config(), 300)
        )


class TestRunnerObservability:
    def test_runner_flags_fold_into_jobs(self, tmp_path):
        runner = ParallelRunner(jobs=1, use_cache=False, observe=True)
        (stats,) = runner.run([SimJob("go", starting_config(), 300)])
        assert stats.stage_metrics["cycles_sampled"] == stats.cycles

    def test_observed_stats_round_trip_the_cache(self, tmp_path):
        runner = ParallelRunner(jobs=1, cache_dir=tmp_path / "c",
                                observe=True)
        job = SimJob("go", starting_config(), 300)
        (cold,) = runner.run([job])
        (warm,) = runner.run([job])
        assert runner.telemetry.cache_hits == 1
        assert warm.stage_metrics == cold.stage_metrics

    def test_unobserved_job_keeps_empty_registry(self):
        runner = ParallelRunner(jobs=1, use_cache=False)
        (stats,) = runner.run([SimJob("go", starting_config(), 300)])
        assert stats.stage_metrics == {}


class TestCLIFlags:
    def test_parser_accepts_observability_flags(self):
        args = build_parser().parse_args(
            ["--observe", "--check-invariants", "--trace", "out.jsonl",
             "list"]
        )
        assert args.observe and args.check_invariants
        assert args.trace == "out.jsonl"

    def test_flags_default_off(self):
        args = build_parser().parse_args(["list"])
        assert not args.observe and not args.check_invariants
        assert args.trace is None

    def test_observe_bench_prints_metrics(self, capsys):
        assert main(["--scale", "600", "--observe", "--check-invariants",
                     "bench", "go"]) == 0
        out = capsys.readouterr().out
        assert "stage metrics over" in out
        assert "R-stream issues: " in out

    def test_trace_flag_writes_per_run_files(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        assert main(["--scale", "600", "--trace", str(trace),
                     "bench", "go"]) == 0
        for label in ("baseline", "reese"):
            path = tmp_path / f"run.{label}.jsonl"
            assert path.exists(), f"missing {path.name}"
            first = json.loads(path.read_text().splitlines()[0])
            assert "kind" in first and "cycle" in first


class TestMetricsReport:
    def test_placeholder_for_unobserved_stats(self):
        assert "not observed" in metrics_report(Stats())

    def test_renders_occupancy_and_fu_split(self):
        stats = Stats()
        stats.stage_metrics = {
            "schema": 1,
            "cycles_sampled": 10,
            "occupancy": {"ruu": {"0": 5, "8": 5}},
        }
        stats.fu_issues = {"ialu": 9, "mem": 3}
        stats.issued_r = 2
        report = metrics_report(stats)
        assert "stage metrics over 10 cycles" in report
        assert "ruu" in report and "4.00" in report and "8" in report
        assert "stalls" not in report  # the cycle account owns stalls
        assert "FU issues: ialu=9, mem=3; R-stream issues: 2" in report
