"""Tests for the stage-timeline renderer (``render_timeline``).

The renderer reads the :class:`TraceEvent` stream an
:class:`EventTracer` emits; rows are parsed back from the fixed-width
table so the tests pin what a reader of the timeline sees.
"""

import pytest

from repro.arch import emulate
from repro.isa import assemble
from repro.uarch import (
    CallbackSink,
    EventTracer,
    Pipeline,
    render_timeline,
    starting_config,
)
from repro.uarch.observers import TIMELINE_STAGES


def _traced(program, trace, config, **kwargs):
    events = []
    stats = Pipeline(
        program, trace, config,
        observers=[EventTracer(CallbackSink(events.append))], **kwargs
    ).run()
    return events, stats


def _rows(text):
    """Parse rendered rows: {"seq", "dyn", "op", "stages", "notes"}."""
    rows = []
    for line in text.splitlines()[2:]:
        if line.startswith("recoveries"):
            continue
        stages = {}
        for index, stage in enumerate(TIMELINE_STAGES):
            cell = line[32 + 7 * index: 38 + 7 * index].strip()
            if cell:
                stages[stage] = int(cell)
        rows.append({
            "seq": int(line[0:5]),
            "dyn": line[6:11].strip(),
            "op": line[12:20].strip(),
            "stages": stages,
            "notes": line[82:].split(),
        })
    return rows


@pytest.fixture
def traced_run(loop_trace):
    program, trace = loop_trace
    events, stats = _traced(program, trace, starting_config())
    return _rows(render_timeline(events, trace)), stats


class TestStageTimelines:
    def test_records_created(self, traced_run):
        rows, _ = traced_run
        assert len(rows) > 0

    def test_stage_order_monotonic(self, traced_run):
        rows, _ = traced_run
        for row in rows[:50]:
            stages = row["stages"]
            order = ["F", "D", "I", "X", "C"]
            present = [stages[s] for s in order if s in stages]
            assert present == sorted(present), row["op"]

    def test_committed_instructions_reach_commit_stage(self, traced_run):
        rows, stats = traced_run
        committed = [row for row in rows if "C" in row["stages"]]
        assert len(committed) == stats.committed
        for row in committed:
            assert "wrong-path" not in row["notes"]

    def test_render(self, loop_trace):
        program, trace = loop_trace
        events, _ = _traced(program, trace, starting_config())
        text = render_timeline(events, trace, limit=10)
        assert "seq" in text
        assert "addi" in text or "add" in text

    def test_limit_bounds_rendered_rows(self, loop_trace):
        program, trace = loop_trace
        events, _ = _traced(program, trace, starting_config())
        assert len(_rows(render_timeline(events, trace, limit=5))) == 5


class TestReeseEvents:
    def test_rqueue_and_r_issue_recorded(self, loop_trace):
        program, trace = loop_trace
        events, _ = _traced(program, trace, starting_config().with_reese())
        rows = _rows(render_timeline(events, trace))
        with_queue = [row for row in rows if "Q" in row["stages"]]
        with_r = [row for row in rows if "R" in row["stages"]]
        assert with_queue
        assert with_r
        for row in with_r:
            # Redundant issue strictly after queue insertion.
            assert row["stages"]["R"] >= row["stages"]["Q"]

    def test_recovery_events_recorded(self):
        from repro.reese import ScheduledFaultModel
        from repro.workloads.suite import trace_for
        program, trace = trace_for("vortex", scale=3000)
        model = ScheduledFaultModel([(c, 2, 9) for c in range(50, 600, 50)])
        events, stats = _traced(
            program, trace, starting_config().with_reese(),
            fault_model=model, warm=True,
        )
        assert stats.recoveries
        text = render_timeline(events, trace, limit=1)
        assert "recoveries at cycles" in text
        recoveries = text.splitlines()[-1].split(":", 1)[1]
        assert recoveries.count(",") + 1 == stats.recoveries


class TestWrongPathVisibility:
    def test_squashed_wrong_path_marked(self):
        source = """
        main:
            li   r1, 120
            li   r2, 99991
            li   r5, 1103515245
        loop:
            mul  r2, r2, r5
            addi r2, r2, 12345
            srli r3, r2, 9
            andi r3, r3, 1
            beqz r3, skip
            addi r6, r6, 1
        skip:
            subi r1, r1, 1
            bnez r1, loop
            halt
        """
        program = assemble(source)
        trace = emulate(program).trace
        events, stats = _traced(program, trace, starting_config())
        assert stats.mispredictions > 0
        rows = _rows(render_timeline(events, trace))
        wrong_path = [row for row in rows if "wrong-path" in row["notes"]]
        assert wrong_path
        for row in wrong_path:
            assert row["dyn"] == "-"
            assert "C" not in row["stages"]
        # Window-resident wrong-path work is squashed at branch resolve.
        assert any("squashed" in row["notes"] for row in wrong_path)
