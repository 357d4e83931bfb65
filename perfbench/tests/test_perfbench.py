"""The benchmark's own tests.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

The workloads run at a tiny scale here (two proxies, short traces, a
handful of injections), so every test exercises the real code paths in
seconds.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.uarch.sampling import SamplingSpec  # noqa: E402

from perfbench import bench, layers, workloads  # noqa: E402
from perfbench.tracing import Span, self_times  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
DESIGN = json.loads((ROOT / "perfbench" / "design.json").read_text())
NAMES = ("fig2", "sampled", "faults")


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "PROXIES", ("go", "vortex"))
    monkeypatch.setattr(workloads.Fig2, "scale", 300)
    monkeypatch.setattr(workloads.Faults, "scale", 300)
    monkeypatch.setattr(workloads.Sampled, "scale", 2_000)
    monkeypatch.setattr(workloads, "SAMPLING",
                        SamplingSpec(intervals=2, interval_length=100))
    monkeypatch.setattr(workloads, "SITE_RUNS", 3)
    monkeypatch.setattr(workloads, "BERNOULLI_RUNS", 2)
    # Fresh-interpreter probes would set up the full-size workload.
    monkeypatch.setattr(bench, "probe_setup", lambda *args: 0.25)


def _measure(name, tmp_path, seed=0):
    return bench.measure(workloads.WORKLOADS[name], seed, 0.0, ROOT,
                         tmp_path)


@pytest.mark.parametrize("name", NAMES)
def test_smoke_untraced(name, tiny, tmp_path):
    result = _measure(name, tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= bench.MIN_PASSES
    assert list(result["metrics"]) == [m["name"] for m in
                                       BENCHMARK["end_to_end"]]
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_pass_count_depends_on_the_requested_seconds_alone():
    fig2 = workloads.WORKLOADS["fig2"]
    probes = bench.PROBES * bench.PROBE_SECONDS
    assert bench.pass_count(fig2, 0.0) == bench.MIN_PASSES
    assert bench.pass_count(fig2, 10 * fig2.pass_seconds + probes) == 10


def test_passes_stop_early_only_when_they_overrun(monkeypatch):
    fig2 = workloads.WORKLOADS["fig2"]
    assert len(bench.run_passes(fig2, 4, lambda: None)) == 4
    clock = iter(range(0, 1000, 100))
    monkeypatch.setattr(bench.time, "perf_counter", lambda: next(clock))
    assert len(bench.run_passes(fig2, 4, lambda: None)) == 1


def test_peak_memory_is_read_before_the_setup_probes(tiny, tmp_path,
                                                      monkeypatch):
    calls = []
    monkeypatch.setattr(bench, "peak_rss_mb",
                        lambda: calls.append("rss") or 1.0)
    monkeypatch.setattr(bench, "probe_setup",
                        lambda *args: calls.append("probe") or 0.25)
    _measure("faults", tmp_path)
    assert calls == ["rss"] + ["probe"] * bench.PROBES


def test_setup_probe_runs_in_a_fresh_interpreter():
    seconds = bench.probe_setup(ROOT, "faults", 0)
    assert 0 < seconds < 60


def _wrapped_objects():
    return {(owner, attr): vars(owner)[attr]
            for owner, attr, _, _ in layers.targets()}


@pytest.mark.parametrize("name", NAMES)
def test_traced_run(name, tiny, tmp_path):
    before = _wrapped_objects()
    untraced = _measure(name, tmp_path)
    first = bench.traced(workloads.WORKLOADS[name], 0, 0.0, tmp_path,
                         tmp_path)
    second = bench.traced(workloads.WORKLOADS[name], 0, 0.0, tmp_path,
                          tmp_path)
    after = _wrapped_objects()
    assert all(after[key] is original for key, original in before.items())

    assert first["correct"] and second["correct"]
    assert first["digest"] == untraced["digest"] == second["digest"]
    assert list(first["metrics"]) == [m["name"] for m in
                                      BENCHMARK["per_layer"]]
    for metric in layers.COUNT_METRICS:
        assert (first["metrics"][metric]["value"]
                == second["metrics"][metric]["value"]), metric
    assert (tmp_path / f"spans-{name}-seed0.jsonl").is_file()


def test_traced_counts_land_on_their_layers(tiny, tmp_path):
    fig2 = bench.traced(workloads.WORKLOADS["fig2"], 0, 0.0, tmp_path,
                        tmp_path)["metrics"]
    assert fig2["uarch.runs"]["value"] == 10
    assert fig2["uarch.committed.baseline"]["value"] > 0
    assert fig2["reese.issued_r"]["value"] > 0
    assert fig2["arch.emulated_insts"]["value"] > 0
    faults = bench.traced(workloads.WORKLOADS["faults"], 0, 0.0, tmp_path,
                          tmp_path)["metrics"]
    assert faults["harness.campaign.emulations"]["value"] == 2 * (3 + 2)
    assert faults["analysis.analyze_s"]["value"] > 0


def test_seed_drives_the_inputs(tiny, tmp_path):
    fig2 = workloads.WORKLOADS["fig2"]
    digests = [workloads.digest(fig2.run_pass(fig2.setup(seed), tmp_path))
               for seed in (0, 0, 7)]
    assert digests[0] == digests[1] != digests[2]


def test_failing_output_check_raises_error_rate(tiny, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "check_cell", lambda *args: False)
    result = _measure("fig2", tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert any(re.match(r"\s+error_rate\s+1 ", line)
               for line in result["lines"])


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(0, None, "root", 0.0, 10.0),
        Span(1, 0, "a", 1.0, 4.0),
        Span(2, 0, "b", 3.0, 6.0),     # overlaps a
        Span(3, 1, "a.child", 2.0, 3.0),
        Span(4, 0, "c", 9.0, 12.0),    # runs past its parent
    ]
    own = self_times(spans)
    assert own == {0: 10.0 - (5.0 + 1.0), 1: 2.0, 2: 3.0, 3: 1.0, 4: 3.0}


def test_metric_names_are_well_formed():
    names = ([m["name"] for m in BENCHMARK["end_to_end"]]
             + [m["name"] for m in BENCHMARK["per_layer"]]
             + [name for name, _ in bench.REPORTED])
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
               for name in names)
    assert len(names) == len(set(names))


def test_design_record_covers_every_workload_and_layer_metric():
    recorded = {w["name"]: w for w in DESIGN["workloads"]}
    for name in NAMES:
        workload = workloads.WORKLOADS[name]
        assert recorded[name]["workers"] == workload.workers
        assert recorded[name]["loop"] == workload.loop
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(NAMES)
    moves = [name for group in DESIGN["per_layer"]
             for name in group["metrics"]]
    assert sorted(moves) == sorted(m["name"] for m in BENCHMARK["per_layer"])
