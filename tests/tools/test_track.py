"""Self-tests for benchmarks/track.py (the trajectory tracker).

The collector itself runs the full profiled suite (exercised by the CI
trajectory step at tiny scale); here we pin the pure pieces — schema
validation, the append-with-validation discipline, and atomicity of
the history rewrite.
"""

import importlib.util
import json
import pathlib
import sys

import pytest

_SCRIPT = (
    pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "track.py"
)
_spec = importlib.util.spec_from_file_location("bench_track", _SCRIPT)
bench_track = importlib.util.module_from_spec(_spec)
sys.modules["bench_track"] = bench_track
_spec.loader.exec_module(bench_track)


def _entry(**overrides):
    entry = {
        "label": "test",
        "timestamp": "2026-08-06T00:00:00+00:00",
        "git_rev": "abc1234",
        "scale": 400,
        "benchmarks": {
            "go": {"baseline_ipc": 3.0, "reese_ipc": 2.2, "r2a_ipc": 2.8,
                   "reese_gap": 0.27, "r2a_gap": 0.07},
        },
        "suite": {
            "r_share": 0.97,
            "slots_lost": 12345,
            "top_causes": [["fu_busy_r", 9000], ["issued_r", 3000]],
            "detect_latency": {"count": 100, "mean": 6.9, "p50": 7,
                               "p99": 13, "max": 14},
        },
    }
    entry.update(overrides)
    return entry


class TestValidate:
    def test_valid_document(self):
        data = {"schema": bench_track.TRAJECTORY_SCHEMA_VERSION,
                "entries": [_entry()]}
        assert bench_track.validate_trajectory(data) == []

    def test_empty_document_is_valid(self):
        data = {"schema": bench_track.TRAJECTORY_SCHEMA_VERSION,
                "entries": []}
        assert bench_track.validate_trajectory(data) == []

    def test_wrong_schema(self):
        errors = bench_track.validate_trajectory(
            {"schema": 99, "entries": []}
        )
        assert any("schema" in e for e in errors)

    def test_missing_entry_keys(self):
        entry = _entry()
        del entry["suite"]
        data = {"schema": 1, "entries": [entry]}
        assert any("missing 'suite'" in e
                   for e in bench_track.validate_trajectory(data))

    def test_missing_bench_keys_and_bad_share(self):
        entry = _entry()
        del entry["benchmarks"]["go"]["reese_gap"]
        entry["suite"]["r_share"] = 1.5
        errors = bench_track.validate_trajectory(
            {"schema": 1, "entries": [entry]}
        )
        assert any("reese_gap" in e for e in errors)
        assert any("outside [0, 1]" in e for e in errors)


class TestAppend:
    def test_initialises_and_appends(self, tmp_path):
        path = tmp_path / "BENCH_TRAJECTORY.json"
        assert bench_track.append_entry(path, _entry()) == 1
        assert bench_track.append_entry(path, _entry(label="second")) == 2
        data = json.loads(path.read_text())
        assert [e["label"] for e in data["entries"]] == ["test", "second"]
        assert not [p for p in tmp_path.iterdir() if ".tmp" in p.name]

    def test_refuses_invalid_entry(self, tmp_path):
        path = tmp_path / "BENCH_TRAJECTORY.json"
        bench_track.append_entry(path, _entry())
        bad = _entry()
        del bad["suite"]["r_share"]
        with pytest.raises(ValueError, match="refusing"):
            bench_track.append_entry(path, bad)
        # The existing history survives the refused write untouched.
        assert len(json.loads(path.read_text())["entries"]) == 1

    def test_validate_cli_paths(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        assert bench_track.main(["--validate", "--path", str(path)]) == 1
        bench_track.append_entry(path, _entry())
        assert bench_track.main(["--validate", "--path", str(path)]) == 0
        assert "OK (1 entries)" in capsys.readouterr().out


class TestCheckedInTrajectory:
    def test_repo_file_validates(self):
        """The committed BENCH_TRAJECTORY.json must satisfy its schema."""
        data = bench_track.load_trajectory(bench_track.DEFAULT_PATH)
        assert bench_track.validate_trajectory(data) == []
        assert data["entries"], "seed entry missing"


def _perfbench_output(wall, digest="ab" * 32, workload="fig2", seed=0):
    """The table ``perfbench/run.py`` prints, then its JSON line."""
    return "\n".join([
        f"perfbench {workload} seed {seed}: 5 passes, 3 set-up probes, "
        f"150 operations, 0 failed",
        "  setup_s              0.312 s",
        f"  wall_s               {wall} s",
        "  peak_rss_mb          38.1 MB",
        "  kips_baseline        105.4 kinst/s",
        "  kips_reese           55.4 kinst/s",
        "  runs_per_s              — 1/s",
        "  error_rate              0 ratio",
        f"  stats_digest     {digest}",
        '{"correct": true, "attempted": 150, "failed": 0, "metrics": {}}',
    ])


class TestSpeedEntries:
    def test_parse_reads_the_table(self):
        run = bench_track.parse_perfbench(_perfbench_output(3.3))
        assert run["workload"] == "fig2" and run["seed"] == 0
        assert run["metrics"]["wall_s"] == 3.3
        assert run["metrics"]["runs_per_s"] is None
        assert run["stats_digest"] == "ab" * 32

    def test_parse_rejects_other_text(self):
        with pytest.raises(ValueError, match="not a perfbench run"):
            bench_track.parse_perfbench("hello\n")

    def test_entry_takes_medians(self):
        entry = bench_track.speed_entry(
            "x", [_perfbench_output(w) for w in (3.0, 2.0, 9.0)], "abc1234"
        )
        assert entry["metrics"]["wall_s"] == 3.0
        assert entry["metrics"]["runs_per_s"] is None
        assert entry["runs"] == 3 and entry["git_rev"] == "abc1234"
        data = {"schema": 2, "entries": [_entry(), entry]}
        assert bench_track.validate_trajectory(data) == []

    def test_runs_must_agree_on_the_digest(self):
        with pytest.raises(ValueError, match="stats_digest"):
            bench_track.speed_entry("x", [_perfbench_output(1.0),
                                          _perfbench_output(1.0, "cd" * 32)])

    def test_validate_flags_bad_speed_entries(self):
        entry = bench_track.speed_entry("x", [_perfbench_output(1.0)])
        entry["metrics"]["wall_s"] = None
        entry["stats_digest"] = "nope"
        errors = bench_track.validate_trajectory(
            {"schema": 1, "entries": [entry]}
        )
        assert any("schema-1 document" in e for e in errors)
        assert any("wall_s" in e for e in errors)
        assert any("stats_digest" in e for e in errors)

    def test_ingest_upgrades_a_schema_1_document(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"schema": 1, "entries": [_entry()]}))
        runs = []
        for index, wall in enumerate((1.5, 1.1)):
            runs.append(tmp_path / f"run{index}.txt")
            runs[-1].write_text(_perfbench_output(wall, workload="faults"))
        assert bench_track.main(["--label", "x", "--ingest", *map(str, runs),
                                 "--path", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["schema"] == 2
        assert data["entries"][1]["workload"] == "faults"
        assert data["entries"][1]["metrics"]["wall_s"] == 1.3
        assert bench_track.main(["--validate", "--path", str(path)]) == 0
