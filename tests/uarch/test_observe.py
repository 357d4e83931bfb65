"""Unit tests for the observability layer (repro.uarch.observe)."""

import json
from types import SimpleNamespace

import pytest

from repro.arch import emulate
from repro.arch.trace import static_records
from repro.isa.instructions import FUClass
from repro.reese import RStreamQueue
from repro.reese.comparator import p_value
from repro.reese.faults import EnvironmentalFaultModel, corrupt_value
from repro.uarch import Pipeline, starting_config
from repro.uarch.pipeline import _Entry
from repro.uarch.observe import ObserveConfig, build_observability
from repro.uarch.observers import (
    EVENT_KINDS,
    INVARIANTS,
    CallbackSink,
    EventTracer,
    InvariantChecker,
    InvariantViolation,
    JSONLSink,
    StageMetrics,
    TraceEvent,
)
from repro.uarch.accounting import CycleAccountant
from repro.uarch.stats import hist_mean
from repro.workloads.suite import trace_for


class TestTraceEvent:
    def test_to_dict_omits_none_fields(self):
        event = TraceEvent(7, "fetch", "P", seq=3)
        assert event.to_dict() == {
            "cycle": 7, "kind": "fetch", "stream": "P", "seq": 3
        }

    def test_to_json_is_canonical(self):
        event = TraceEvent(1, "commit", "P", seq=2, iseq=2, op="add",
                           fu="IALU")
        line = event.to_json()
        assert line == json.dumps(json.loads(line), sort_keys=True,
                                  separators=(",", ":"))
        # Sorted keys and no whitespace: byte-stable across runs.
        assert " " not in line

    def test_extra_fields_are_flattened(self):
        event = TraceEvent(1, "compare", "R", extra={"match": False})
        assert event.to_dict()["match"] is False


class TestSinks:
    def test_jsonl_sink_writes_one_line_per_event(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JSONLSink(path)
        sink.emit(TraceEvent(1, "fetch", "P", seq=0))
        sink.emit(TraceEvent(2, "commit", "P", seq=0))
        sink.close()
        lines = path.read_text().splitlines()
        assert sink.lines == 2
        assert [json.loads(line)["kind"] for line in lines] == [
            "fetch", "commit"
        ]

    def test_jsonl_sink_close_is_idempotent(self, tmp_path):
        sink = JSONLSink(tmp_path / "events.jsonl")
        sink.close()
        sink.close()

    def test_callback_sink(self):
        seen = []
        sink = CallbackSink(seen.append)
        event = TraceEvent(0, "fetch", "P")
        sink.emit(event)
        sink.close()
        assert seen == [event]


class TestEventTracer:
    def _traced_run(self, program, trace, config):
        events = []
        pipe = Pipeline(program, trace, config,
                        observers=[EventTracer(CallbackSink(events.append))])
        stats = pipe.run()
        return stats, events

    def test_all_kinds_are_catalogued(self, loop_trace, cfg):
        program, trace = loop_trace
        _, events = self._traced_run(program, trace, cfg.with_reese())
        assert {e.kind for e in events} <= set(EVENT_KINDS)

    def test_commit_events_match_commit_count(self, loop_trace, cfg):
        program, trace = loop_trace
        stats, events = self._traced_run(program, trace, cfg)
        commits = [e for e in events if e.kind == "commit"]
        assert len(commits) == stats.committed == len(trace)

    def test_reese_run_emits_r_stream_events(self, mixed_trace, cfg):
        program, trace = mixed_trace
        stats, events = self._traced_run(program, trace, cfg.with_reese())
        by_kind_stream = {(e.kind, e.stream) for e in events}
        assert ("rqueue_insert", "R") in by_kind_stream
        assert ("issue", "R") in by_kind_stream
        assert ("writeback", "R") in by_kind_stream
        assert ("compare", "R") in by_kind_stream
        compares = [e for e in events if e.kind == "compare"]
        assert all(e.extra["match"] for e in compares)
        assert len(compares) == stats.comparisons

    def test_baseline_run_has_no_r_stream(self, loop_trace, cfg):
        program, trace = loop_trace
        _, events = self._traced_run(program, trace, cfg)
        assert all(e.stream == "P" for e in events)


class TestStageMetrics:
    def test_histograms_sum_to_cycles(self, mixed_trace, cfg):
        program, trace = mixed_trace
        metrics = StageMetrics()
        stats = Pipeline(program, trace, cfg.with_reese(),
                         observers=[metrics]).run()
        registry = stats.stage_metrics
        assert registry["cycles_sampled"] == stats.cycles
        for key in StageMetrics.STRUCTURES:
            hist = registry["occupancy"][key]
            assert sum(hist.values()) == stats.cycles
            # String bins (JSON cache round-trip safe).
            assert all(isinstance(bin_, str) for bin_ in hist)

    def test_fu_split_accounts_r_stream(self, mixed_trace, cfg):
        """The registry keeps no issue counts: ``Stats.fu_issues`` is
        the per-pool record, R-stream issues included."""
        program, trace = mixed_trace
        stats = Pipeline(
            program, trace, cfg.with_reese(), observers=[StageMetrics()],
        ).run()
        assert "fu_issued" not in stats.stage_metrics
        assert sum(stats.fu_issues.values()) >= stats.issued_r > 0

    def test_sampled_interval_covers_only_the_measured_window(self):
        """The ``measure_from`` reset restarts the metrics too.

        Without it the registry of a sampled interval also counted the
        detailed warm-up cycles before its measured window.
        """
        from repro.uarch.sampling import SamplingSpec, run_interval

        program, trace = trace_for("go", 2000)
        stats = run_interval(
            program, trace, starting_config().with_reese(),
            SamplingSpec(2, 100), 1, observe=ObserveConfig(metrics=True),
        )
        registry = stats.stage_metrics
        assert registry["cycles_sampled"] == stats.cycles
        for hist in registry["occupancy"].values():
            assert sum(hist.values()) == stats.cycles

    def test_occupancy_mean(self):
        # Occupancy histograms share the lag histograms' mean helper.
        assert hist_mean({"0": 2, "4": 2}) == pytest.approx(2.0)
        assert hist_mean({}) == 0.0


def _queued_for(dyn, trace_seq=0):
    """The R-stream Queue entry of ``dyn``, ``trace[trace_seq]``: its
    pipeline entry, moved."""
    entry = _Entry(0, dyn.static, dyn, trace_seq)
    entry.p_value = p_value(dyn)
    entry.r_fu = FUClass.INT_ALU
    return entry


class _PipeStub(SimpleNamespace):
    """A stand-in pipeline; unlike SimpleNamespace, weakly referenceable
    (the checker keeps its pipeline by weak reference)."""


def _reese_stub():
    """The REESE pipeline state the checker reads at commit."""
    return _PipeStub(rqueue=RStreamQueue())


class TestInvariantChecker:
    def test_clean_runs_pass(self, mixed_trace, cfg):
        program, trace = mixed_trace
        for config in (cfg, cfg.with_reese(), cfg.with_dispatch_dup()):
            checker = InvariantChecker()
            stats = Pipeline(program, trace, config,
                             observers=[checker]).run()
            assert stats.committed == len(trace)
            assert checker.violations == []
            assert checker.checks > 0

    def test_commit_order_violation(self, loop_trace):
        program, _ = loop_trace
        dyn = emulate(program).trace[5]
        checker = InvariantChecker()
        with pytest.raises(InvariantViolation) as excinfo:
            checker.on_commit(10, _queued_for(dyn, 5))
        assert excinfo.value.invariant == "commit-order"
        assert excinfo.value.cycle == 10
        assert excinfo.value.trace_seq == 5

    def test_commit_oracle_catches_corrupted_value(self, loop_trace):
        """Under REESE the checker re-executes against the value the
        comparator passed."""
        program, _ = loop_trace
        trace = emulate(program).trace
        checker = InvariantChecker(collect=True)
        checker.bind(_reese_stub())
        entry = _queued_for(trace[0])
        entry.p_value = corrupt_value(entry.p_value, 3)
        checker.on_commit(1, entry)
        assert [v.invariant for v in checker.violations] == ["commit-oracle"]

    def test_commit_oracle_catches_corrupted_p_result(self, loop_trace):
        """Without REESE, against the P result its fault corrupted."""
        program, _ = loop_trace
        trace = emulate(program).trace
        checker = InvariantChecker(collect=True)
        entry = _Entry(0, trace[0].static, trace[0], 0)
        entry.p_fault_bit = 3
        checker.on_commit(1, entry)
        assert [v.invariant for v in checker.violations] == ["commit-oracle"]

    def test_r_issue_before_p_writeback(self):
        checker = InvariantChecker()
        with pytest.raises(InvariantViolation) as excinfo:
            checker.on_r_issue(4, SimpleNamespace(trace_seq=7))
        assert excinfo.value.invariant == "r-before-p"

    def test_flush_residue(self):
        checker = InvariantChecker()
        pipe = _PipeStub(ifq=[object()], ruu=[], lsq=[], ready=[],
                         create=[], rqueue=None)
        checker.bind(pipe)
        with pytest.raises(InvariantViolation) as excinfo:
            checker.on_recover(9)
        assert excinfo.value.invariant == "flush-residue"
        assert "ifq" in excinfo.value.detail

    def test_wrong_path_entry_outside_wrong_path_fetch(self, mixed_program,
                                                      cfg):
        """A wrong-path entry may sit in the RUU only while fetch is on
        the wrong path: the cycle accountant relies on it."""
        checker = InvariantChecker(collect=True)
        static = static_records(mixed_program)[0]
        pipe = _PipeStub(
            cycle=3, config=cfg, ruu=[_Entry(0, static)],
            lsq=[], ready=[], rqueue=None, commit_seq=0, wp_active=True,
        )
        checker.on_cycle(pipe)
        assert checker.violations == []
        pipe.wp_active = False
        with pytest.raises(InvariantViolation) as excinfo:
            InvariantChecker().on_cycle(pipe)
        assert excinfo.value.invariant == "structural"
        assert "wrong-path" in excinfo.value.detail

    def test_collect_mode_accumulates(self):
        checker = InvariantChecker(collect=True)
        checker.on_r_issue(1, SimpleNamespace(trace_seq=1))
        checker.on_r_issue(2, SimpleNamespace(trace_seq=2))
        assert len(checker.violations) == 2

    def test_violation_message_names_cycle_and_instruction(self):
        violation = InvariantViolation("commit-order", 42, 7, "details here")
        assert str(violation) == (
            "[commit-order] at cycle 42, instruction 7: details here"
        )
        assert violation.invariant in INVARIANTS


class TestObserveConfig:
    def test_disabled_by_default(self):
        assert build_observability(None) == []
        assert build_observability(ObserveConfig()) == []

    @pytest.mark.parametrize("kwargs", [
        dict(metrics=True),
        dict(check_invariants=True),
        dict(trace_path="x.jsonl"),
        # An empty trace path writes no trace: only the checker attaches.
        dict(check_invariants=True, trace_path=""),
        dict(profile=True),
    ])
    def test_any_piece_enables(self, kwargs, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (observer,) = build_observability(ObserveConfig(**kwargs))
        if isinstance(observer, EventTracer):
            observer.sink.close()

    def test_build_composes_requested_pieces(self, tmp_path):
        observers = build_observability(ObserveConfig(
            metrics=True,
            check_invariants=True,
            trace_path=str(tmp_path / "t.jsonl"),
            profile=True,
        ))
        # The checker first: a violation is raised before its event is
        # written.
        assert [type(obs) for obs in observers] == [
            InvariantChecker, StageMetrics, EventTracer, CycleAccountant,
        ]
        assert isinstance(observers[2].sink, JSONLSink)
        observers[2].sink.close()

    def test_full_stack_end_to_end(self, mixed_trace, cfg, tmp_path):
        program, trace = mixed_trace
        path = tmp_path / "trace.jsonl"
        observers = build_observability(ObserveConfig(
            metrics=True, check_invariants=True, trace_path=str(path)
        ))
        stats = Pipeline(program, trace, cfg.with_reese(),
                         observers=observers).run()
        assert stats.committed == len(trace)
        assert stats.stage_metrics["cycles_sampled"] == stats.cycles
        lines = path.read_text().splitlines()
        assert lines, "trace file must not be empty"
        assert all(json.loads(line)["kind"] in EVENT_KINDS for line in lines)


#: (machine, fault model factory) for the composition test: REESE and
#: dispatch-dup, each fault-free and under environmental faults.
COMPOSED_RUNS = {
    "reese": (starting_config().with_reese(), None),
    "reese_faulted": (
        starting_config().with_reese(),
        lambda: EnvironmentalFaultModel(rate=5e-3, duration=3, seed=1),
    ),
    "dispatch_dup": (starting_config().with_dispatch_dup(), None),
    "dispatch_dup_faulted": (
        starting_config().with_dispatch_dup(),
        lambda: EnvironmentalFaultModel(rate=5e-3, duration=3, seed=1),
    ),
}


class TestComposition:
    """Observers attached together see and record exactly what each
    records when attached alone, and none perturbs the run."""

    @staticmethod
    def _run(name, observers):
        config, faults = COMPOSED_RUNS[name]
        program, trace = trace_for("vortex", 400)
        return Pipeline(program, trace, config,
                        fault_model=faults() if faults else None,
                        observers=observers).run()

    @staticmethod
    def _violations(checker):
        return [(v.invariant, v.cycle, v.trace_seq, v.detail)
                for v in checker.violations]

    @pytest.mark.parametrize("name", sorted(COMPOSED_RUNS))
    def test_together_equals_alone(self, name, tmp_path):
        checker = InvariantChecker(collect=True)
        tracer = EventTracer(JSONLSink(tmp_path / "together.jsonl"))
        together = self._run(name, [checker, StageMetrics(), tracer,
                                    CycleAccountant()])

        alone_checker = InvariantChecker(collect=True)
        alone = {
            "checker": self._run(name, [alone_checker]),
            "tracer": self._run(name, [
                EventTracer(JSONLSink(tmp_path / "alone.jsonl"))
            ]),
            "metrics": self._run(name, [StageMetrics()]),
            "accountant": self._run(name, [CycleAccountant()]),
            "none": self._run(name, []),
        }
        assert ((tmp_path / "together.jsonl").read_bytes()
                == (tmp_path / "alone.jsonl").read_bytes())
        assert together.stage_metrics == alone["metrics"].stage_metrics
        assert together.accounting == alone["accountant"].accounting
        assert self._violations(checker) == self._violations(alone_checker)
        assert checker.checks == alone_checker.checks > 0

        def plain(stats):
            state = stats.state_dict()
            del state["stage_metrics"], state["accounting"]
            return state

        for stats in alone.values():
            assert plain(together) == plain(stats)
        if "faulted" in name:
            assert together.errors_detected >= 1
