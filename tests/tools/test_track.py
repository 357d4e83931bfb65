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

    @pytest.mark.parametrize("rev,valid", [
        ("4c2d974", True),
        ("4c2d974e" * 5, True),
        ("unknown", True),
        ("child of f7dc6e6", False),
        ("4c2d97", False),
        ("4C2D974", False),
        ("4c2d974e" * 5 + "0", False),
        ("", False),
    ])
    def test_git_rev_is_a_commit_id_or_unknown(self, rev, valid):
        speed = bench_track.speed_entry("x", [_perfbench_output(1.0)])
        speed["git_rev"] = rev
        for entry in (_entry(git_rev=rev), speed):
            errors = bench_track.validate_trajectory(
                {"schema": 2, "entries": [entry]}
            )
            assert (errors == []) is valid, errors


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
        assert (run["attempted"], run["failed"]) == (150, 0)
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

    def test_child_cpu_is_an_optional_median(self):
        runs = [_perfbench_output(1.0)] * 3
        assert "child_cpu_s" not in bench_track.speed_entry("x", runs)
        entry = bench_track.speed_entry("x", runs, "abc1234", [3.0, 1.0, 2.5])
        assert entry["child_cpu_s"] == 2.5
        document = {"schema": 2, "entries": [entry]}
        assert bench_track.validate_trajectory(document) == []
        for bad in (-1.0, "2.5", None, True):
            entry["child_cpu_s"] = bad
            errors = bench_track.validate_trajectory(document)
            assert len(errors) == 1 and "child_cpu_s" in errors[0]

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


def _speed(wall, digest="ab" * 32, workload="fig2", seed=0, rev="abc1234"):
    return bench_track.speed_entry(
        f"wall {wall}", [_perfbench_output(wall, digest, workload, seed)],
        rev,
    )


class TestCompare:
    BOUNDS = {"wall_s": (0.25, "lower"), "setup_s": (0.25, "lower"),
              "peak_rss_mb": (0.1, "lower")}

    def _compare(self, *entries):
        return bench_track.compare_speed(
            {"schema": 2, "entries": [_entry(), *entries]}, self.BOUNDS)

    def test_within_bounds_and_same_digest_is_clean(self):
        lines, flags = self._compare(_speed(2.0), _speed(2.4))
        assert flags == 0
        assert any("wall_s" in line and "+20.0%" in line for line in lines)
        assert any("unchanged" in line for line in lines)

    def test_metric_past_its_bound_is_flagged(self):
        lines, flags = self._compare(_speed(2.0), _speed(2.6))
        assert flags == 1
        assert any("wall_s" in line and "FLAG" in line for line in lines)

    def test_only_the_newest_two_entries_of_a_series_are_compared(self):
        # 9.0 -> 2.0 is an improvement; the older 1.0 is history.
        lines, flags = self._compare(_speed(1.0), _speed(9.0), _speed(2.0))
        assert flags == 0
        assert any("9.0000 ->     2.0000" in line for line in lines)

    def test_digest_change_is_flagged(self):
        lines, flags = self._compare(_speed(2.0), _speed(2.0, "cd" * 32))
        assert flags == 1
        assert any("results changed" in line for line in lines)

    def test_series_are_keyed_by_workload_and_seed(self):
        lines, flags = self._compare(
            _speed(2.0), _speed(5.0, workload="faults"),
            _speed(9.0, seed=7), _speed(2.1),
        )
        assert flags == 0
        assert "faults seed 0: one entry, nothing to compare" in lines
        assert "fig2 seed 7: one entry, nothing to compare" in lines

    def test_higher_is_better_bound_flags_a_fall(self):
        bounds = {"kips_reese": (0.1, "higher")}
        old, new = _speed(2.0), _speed(2.0)
        new["metrics"]["kips_reese"] = old["metrics"]["kips_reese"] * 0.8
        _lines, flags = bench_track.compare_speed(
            {"schema": 2, "entries": [old, new]}, bounds)
        assert flags == 1

    def test_bounds_come_from_the_benchmark_contract(self):
        bounds = bench_track.load_bounds()
        assert bounds["wall_s"][1] == "lower"
        assert all(bound > 0 and better in ("lower", "higher")
                   for bound, better in bounds.values())

    def test_cli_reports_and_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        for entry in (_speed(2.0), _speed(9.0, "cd" * 32)):
            bench_track.append_entry(path, entry)
        assert bench_track.main(["--compare", "--path", str(path)]) == 0
        out = capsys.readouterr().out
        assert "FLAG" in out and out.rstrip().endswith("2 flags")


class TestAB:
    """The A/B driver with a stub exporter and runner: no git, no
    perfbench."""

    @staticmethod
    def _export(rev, dest):
        (dest / "REV").write_text(rev)
        return {"old": "aaaaaaa", "new": "bbbbbbb"}[rev]

    @staticmethod
    def _runner(walls, digests=None, clock=None):
        """A runner whose k-th run of a side reports ``walls[side][k]``
        and spends twice that in child CPU seconds on ``clock`` (a
        one-item list); it records the order of its calls."""
        calls = []
        clock = [0.0] if clock is None else clock

        def run(root, workload, seed, seconds):
            side = (root / "REV").read_text()
            k = sum(1 for call in calls if call[0] == side and call[2] == seed)
            calls.append((side, workload, seed, seconds))
            clock[0] += 2 * walls[side][k]
            digest = (digests or {}).get(side, "ab" * 32)
            return _perfbench_output(walls[side][k], digest, workload, seed)

        return run, calls

    def test_pairs_alternate_which_side_runs_first(self, tmp_path):
        run, calls = self._runner({"old": [1.0] * 3, "new": [1.0] * 3})
        roots = [tmp_path / "p", tmp_path / "c"]
        for root, rev in zip(roots, ("old", "new")):
            root.mkdir()
            (root / "REV").write_text(rev)
        outputs, cpu_s = bench_track.ab_runs(roots, "sampled", 7, 3, 5.0,
                                             run)
        assert [call[0] for call in calls] == [
            "old", "new", "new", "old", "old", "new"]
        assert all(call[1:] == ("sampled", 7, 5.0) for call in calls)
        assert [len(side) for side in outputs] == [3, 3]
        assert [len(side) for side in cpu_s] == [3, 3]

    def test_child_cpu_is_measured_around_each_run(self, tmp_path):
        path = tmp_path / "t.json"
        clock = [100.0]
        walls = {"old": [2.0, 3.0, 4.0], "new": [1.0, 1.5, 0.5]}
        run, _calls = self._runner(walls, clock=clock)
        lines = list(bench_track.ab("old", "new", "faults", [0], 3, None,
                                    "x", path, self._export, run,
                                    cpu=lambda: clock[0]))
        # Each run spends twice its wall time: medians 6.0 and 2.0.
        assert ("  child_cpu_s      6.0000 ->     2.0000 (medians; "
                "supporting evidence, not gated)") in lines
        data = json.loads(path.read_text())
        assert [entry["child_cpu_s"] for entry in data["entries"]] == [
            6.0, 2.0]
        assert bench_track.validate_trajectory(data) == []

    def test_reports_and_ingests_both_sides(self, tmp_path):
        path = tmp_path / "t.json"
        walls = {"old": [2.0, 2.2, 2.4, 2.1], "new": [1.0, 2.5, 1.1, 1.2]}
        run, calls = self._runner(walls)
        lines = list(bench_track.ab("old", "new", "fig2", [0, 7], 4, None,
                                    "my change", path, self._export, run))
        assert lines[0] == ("fig2: parent old @ aaaaaaa -> change new @ "
                            "bbbbbbb, 4 alternating pairs")
        assert len(calls) == 16
        wall = next(line for line in lines if "wall_s" in line)
        # Medians 2.15 -> 1.15; the change wins 3 of 4 pairs.
        assert "2.1500 [2.0750, 2.2500] ->     1.1500 [1.0750, 1.5250]" \
            in wall and "(0.535x)" in wall
        assert "better in 3/4 pairs" in wall
        assert "gap beyond the parent's IQR 0.1750" in wall
        assert any("equal in every run" in line for line in lines)
        assert "  failed       change: 0 of 600 operations" in lines
        data = json.loads(path.read_text())
        assert [(e["label"], e["git_rev"], e["seed"], e["runs"])
                for e in data["entries"]] == [
            ("parent of my change", "aaaaaaa", 0, 4),
            ("my change", "bbbbbbb", 0, 4),
            ("parent of my change", "aaaaaaa", 7, 4),
            ("my change", "bbbbbbb", 7, 4)]
        assert data["entries"][1]["metrics"]["wall_s"] == 1.15
        assert bench_track.validate_trajectory(data) == []

    def test_a_digest_change_is_reported(self, tmp_path):
        run, _calls = self._runner({"old": [1.0], "new": [1.0]},
                                   {"new": "cd" * 32})
        lines = list(bench_track.ab("old", "new", "faults", [0], 1, 5.0,
                                    "x", tmp_path / "t.json", self._export,
                                    run))
        assert any("DIFFERS" in line for line in lines)

    def test_a_run_does_not_inherit_this_process_peak_rss(self, tmp_path):
        """``ru_maxrss`` survives ``exec``: a run forked straight from a
        large process reads that process's RSS as its peak."""
        script = tmp_path / "perfbench" / "run.py"
        script.parent.mkdir()
        script.write_text(
            "import resource\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
        ballast = b"\x01" * (96 << 20)  # resident in this process
        peak_kb = int(bench_track.perfbench_run(tmp_path, "faults", 0, 1.0))
        assert len(ballast) == 96 << 20
        assert peak_kb < 64 << 10

    def test_gap_within_the_parent_iqr_is_reported(self):
        parent = [_perfbench_output(wall) for wall in (1.0, 2.0, 3.0, 4.0)]
        change = [_perfbench_output(wall) for wall in (1.5, 2.5, 2.5, 3.5)]
        wall = bench_track.ab_report(parent, change, {})[0]
        assert "(1.000x)" in wall and "gap within the parent's IQR" in wall
