"""Harness telemetry: atomic artefact writes and per-job run records.

Covers the telemetry module's pure pieces (atomic write, record
shaping, JSONL round-trip), the ParallelRunner integration
(``telemetry_path``), the JSONL trace sink's tmp-rename discipline,
and the metrics report of an observed run.
"""

import json
import os

import pytest

from repro.harness.parallel import (
    JobRecord,
    ParallelRunner,
    RunTelemetry,
    SimJob,
)
from repro.harness.reporting import metrics_report
from repro.harness.telemetry import (
    TELEMETRY_SCHEMA_VERSION,
    atomic_write_text,
    job_record_dict,
    read_job_telemetry,
    render_jsonl,
    write_job_telemetry,
)
from repro.harness.runner import run_model
from repro.uarch.config import starting_config
from repro.uarch.observe import ObserveConfig
from repro.uarch.observers import JSONLSink, TraceEvent
from repro.workloads.suite import trace_for


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


def _no_stray_tmp(directory):
    return [p for p in os.listdir(directory) if ".tmp" in p] == []


class TestAtomicWrite:
    def test_writes_and_leaves_no_tmp(self, tmp_path):
        target = tmp_path / "out.jsonl"
        atomic_write_text(target, "hello\n")
        assert target.read_text() == "hello\n"
        assert _no_stray_tmp(tmp_path)

    def test_replaces_existing_content(self, tmp_path):
        target = tmp_path / "out.json"
        atomic_write_text(target, "old")
        atomic_write_text(target, "new")
        assert target.read_text() == "new"

    def test_creates_parent_directories(self, tmp_path):
        target = tmp_path / "a" / "b" / "out.txt"
        atomic_write_text(target, "x")
        assert target.read_text() == "x"

    def test_multi_dot_names(self, tmp_path):
        target = tmp_path / "run.profile.v1.jsonl"
        atomic_write_text(target, "x")
        assert target.read_text() == "x"
        assert _no_stray_tmp(tmp_path)


class _FakeTelemetry:
    def __init__(self, records):
        self.records = records


class TestJobRecords:
    def test_cached_record_has_no_rate(self):
        record = JobRecord(0, "go", "starting", 300, 7, True, 0.0, 123, 900)
        out = job_record_dict(record)
        assert out["schema"] == TELEMETRY_SCHEMA_VERSION
        assert out["cached"] is True
        assert out["cycles_per_sec"] is None

    def test_simulated_record_rate(self):
        record = JobRecord(1, "go", "starting", 300, 7, False, 2.0, 123, 900)
        assert job_record_dict(record)["cycles_per_sec"] == 450.0

    def test_round_trip(self, tmp_path):
        records = [
            JobRecord(0, "go", "starting", 300, 7, False, 0.5, 1, 100),
            JobRecord(1, "li", "starting+reese", 300, 7, True, 0.0, 1, 150),
        ]
        path = tmp_path / "telemetry.jsonl"
        count = write_job_telemetry(path, _FakeTelemetry(records))
        assert count == 2
        loaded = read_job_telemetry(path)
        assert [r["benchmark"] for r in loaded] == ["go", "li"]
        assert loaded == [job_record_dict(r) for r in records]
        assert _no_stray_tmp(tmp_path)

    def test_served_record_names_its_source_and_has_no_rate(self):
        record = JobRecord(2, "go", "starting+2alu+1mult+reese", 300, 7,
                           False, 0.001, 123, 900,
                           served_from="starting+2alu+reese")
        out = job_record_dict(record)
        assert out["served_from"] == "starting+2alu+reese"
        assert out["cycles_per_sec"] is None
        assert job_record_dict(JobRecord(
            0, "go", "starting", 300, 7, False, 2.0, 123, 900,
        ))["served_from"] is None

    def test_summary_counts_served_jobs_apart(self):
        records = [
            JobRecord(0, "go", "a", 300, 7, True, 0.0, 1, 100),
            JobRecord(1, "go", "b", 300, 7, False, 0.5, 1, 100),
            JobRecord(2, "go", "c", 300, 7, False, 0.0, 1, 100,
                      served_from="b"),
        ]
        telemetry = RunTelemetry(jobs=3, workers=1, cache_hits=1,
                                 wall_seconds=0.6, records=records)
        assert telemetry.reused == 1
        assert telemetry.simulated == 1
        assert telemetry.summary().startswith(
            "[parallel] 3 jobs (1 cache hits, 1 simulated), 1 reused, on "
            "1 worker(s);")

    def test_render_jsonl_is_canonical(self):
        text = render_jsonl([{"b": 1, "a": 2}])
        assert text == '{"a": 2, "b": 1}\n'


class TestRunnerIntegration:
    def test_runner_writes_telemetry_file(self, tmp_path):
        path = tmp_path / "run.jsonl"
        runner = ParallelRunner(jobs=1, use_cache=False, telemetry_path=path)
        config = starting_config()
        runner.run([
            SimJob("go", config, 300),
            SimJob("go", config.with_reese(), 300),
        ])
        records = read_job_telemetry(path)
        assert len(records) == 2
        assert all(r["schema"] == TELEMETRY_SCHEMA_VERSION for r in records)
        assert all(r["cycles"] > 0 for r in records)
        assert not any(r["cached"] for r in records)
        assert all(r["served_from"] is None for r in records)
        assert _no_stray_tmp(tmp_path)

    def test_cache_hits_recorded_with_cycles(self, tmp_path):
        path = tmp_path / "run.jsonl"
        jobs = [SimJob("go", starting_config(), 300)]
        ParallelRunner(jobs=1, use_cache=True).run(jobs)
        runner = ParallelRunner(jobs=1, use_cache=True, telemetry_path=path)
        runner.run(jobs)
        (record,) = read_job_telemetry(path)
        assert record["cached"] is True
        assert record["cycles"] > 0
        assert record["cycles_per_sec"] is None


class TestJSONLSinkAtomicity:
    def test_file_appears_only_on_close(self, tmp_path):
        target = tmp_path / "trace.jsonl"
        sink = JSONLSink(str(target))
        sink.emit(TraceEvent(kind="fetch", cycle=0, stream="P"))
        assert not target.exists()  # still streaming to the tmp file
        assert os.path.exists(f"{target}.tmp")
        sink.close()
        assert target.exists()
        assert not os.path.exists(f"{target}.tmp")
        assert json.loads(target.read_text().splitlines()[0])["kind"] == "fetch"

    def test_close_is_idempotent(self, tmp_path):
        target = tmp_path / "trace.jsonl"
        sink = JSONLSink(str(target))
        sink.close()
        sink.close()
        assert target.exists()


def _observed_go(observe):
    program, trace = trace_for("go", 300)
    return run_model(program, trace, starting_config(), observe=observe)


class TestDroppedEvents:
    def test_no_overflow_no_warning(self):
        """No sink drops events: an observed run's registry carries no
        dropped-event count, and its report no warning."""
        stats = _observed_go(ObserveConfig(metrics=True))
        assert "dropped_events" not in stats.state_dict()["stage_metrics"]
        report = metrics_report(stats)
        assert f"over {stats.cycles} cycles" in report
        assert "WARNING" not in report
