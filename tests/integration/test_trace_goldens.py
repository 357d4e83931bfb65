"""Golden event-trace regression tests.

Four small runs are traced through the full parallel execution layer
and their JSONL event traces compared byte-for-byte against committed
goldens: two fault-free, and two under one environmental fault each, so
that a REESE mismatch and flush and the dispatch-dup comparisons (which
carry their ``seq``) are pinned too.  These pin the *entire* observable pipeline
behaviour — every fetch, issue, writeback, R-stream re-execution and
comparison, in order — so any accidental change to stage scheduling
shows up as a trace diff, not just a cycle-count drift.

If you change the timing model or the event schema **deliberately**,
re-generate the goldens:

    PYTHONPATH=src python - <<'PY'
    from tests.integration.test_trace_goldens import CASES, GOLDEN_DIR
    from repro.harness.parallel import ParallelRunner
    ParallelRunner(jobs=1, use_cache=False).run([
        make(str(GOLDEN_DIR / golden)) for golden, make in CASES.values()
    ])
    PY

and bump EVENT_SCHEMA_VERSION if the line format itself changed.
"""

import json
import pathlib

import pytest

from repro.harness.parallel import FaultSpec, ParallelRunner, SimJob
from repro.uarch.config import starting_config
from repro.uarch.observers import EVENT_KINDS

GOLDEN_DIR = pathlib.Path(__file__).parent.parent / "goldens"

#: At this rate and seed each faulted case detects exactly one
#: mismatch, so its trace holds one flush.
FAULT = FaultSpec.make("environmental", rate=2e-3, duration=3, seed=1)

#: name -> (golden file, SimJob factory); scale 120 keeps the traces
#: around a thousand events (gcc/li/perl have large fixed-size floors
#: and do not scale down — see the workload builders).
CASES = {
    "vortex_reese": (
        "trace_vortex_reese_s120.jsonl",
        lambda path: SimJob("vortex", starting_config().with_reese(), 120,
                            trace_path=path),
    ),
    "go_baseline": (
        "trace_go_baseline_s120.jsonl",
        lambda path: SimJob("go", starting_config(), 120, trace_path=path),
    ),
    "vortex_reese_faulted": (
        "trace_vortex_reese_faulted_s120.jsonl",
        lambda path: SimJob("vortex", starting_config().with_reese(), 120,
                            fault=FAULT, trace_path=path),
    ),
    "go_dispatch_dup_faulted": (
        "trace_go_dispatch_dup_faulted_s120.jsonl",
        lambda path: SimJob("go", starting_config().with_dispatch_dup(), 120,
                            fault=FAULT, trace_path=path),
    ),
}


def _run(tmp_path, jobs, tag):
    """Trace every case through a ParallelRunner; returns name -> bytes."""
    paths = {
        name: str(tmp_path / f"{tag}_{name}.jsonl") for name in CASES
    }
    ParallelRunner(jobs=jobs, use_cache=False).run(
        [make(paths[name]) for name, (_, make) in CASES.items()]
    )
    return {
        name: pathlib.Path(path).read_bytes()
        for name, path in paths.items()
    }


@pytest.mark.parametrize("name", sorted(CASES))
class TestTraceGoldens:
    def test_trace_matches_golden(self, name, tmp_path):
        produced = _run(tmp_path, jobs=1, tag="seq")[name]
        golden = (GOLDEN_DIR / CASES[name][0]).read_bytes()
        assert produced == golden, (
            f"event trace for {name} diverged from the committed golden "
            f"({len(produced.splitlines())} vs {len(golden.splitlines())} "
            f"lines); see the module docstring for regeneration steps"
        )

    def test_golden_lines_are_canonical(self, name):
        """Every golden line parses and is in canonical JSON form."""
        text = (GOLDEN_DIR / CASES[name][0]).read_text()
        for line in text.splitlines():
            record = json.loads(line)
            assert record["kind"] in EVENT_KINDS
            assert record["stream"] in ("P", "R")
            assert line == json.dumps(record, sort_keys=True,
                                      separators=(",", ":"))


class TestTraceDeterminism:
    def test_byte_stable_across_worker_counts(self, tmp_path):
        sequential = _run(tmp_path, jobs=1, tag="j1")
        parallel = _run(tmp_path, jobs=2, tag="j2")
        for name in CASES:
            assert sequential[name] == parallel[name]

    def test_cache_hit_never_skips_the_trace(self, tmp_path):
        """A job with a trace path must simulate even with a warm cache."""
        runner = ParallelRunner(jobs=1, cache_dir=tmp_path / "cache")
        path = tmp_path / "trace.jsonl"
        job = CASES["go_baseline"][1](str(path))
        runner.run([job])
        first = path.read_bytes()
        path.unlink()
        runner.run([job])
        assert runner.telemetry.cache_hits == 0
        assert path.read_bytes() == first
