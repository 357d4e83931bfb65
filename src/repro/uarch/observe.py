"""Pipeline observability: event tracing, stage metrics, invariants.

The timing core (:mod:`repro.uarch.pipeline`) exposes only end-of-run
aggregates through :class:`~repro.uarch.stats.Stats`; this module is
the instrumentation layer that makes cycle-level micro-behaviour —
R-stream instructions slotting into idle functional units, the
R-stream Queue draining before commit, P/R results meeting at the
comparator — visible and checkable.  Three cooperating pieces, all
**zero-overhead when off** (an unobserved pipeline takes exactly one
``observer is None`` branch per event site):

* :class:`EventTracer` — a structured **event trace**.  Every stage
  event (fetch/dispatch/issue/writeback/commit/flush/R-issue/compare,
  plus squash and R-queue insertion) becomes a :class:`TraceEvent`
  carrying cycle, stream tag (``P``/``R``), pipeline and trace sequence
  numbers, opcode and functional-unit class, emitted through a
  pluggable sink: :class:`RingBufferSink` (bounded, in-memory),
  :class:`JSONLSink` (deterministic, byte-stable JSON lines — the
  golden-file oracle for regression tests) or :class:`CallbackSink`.
  :func:`render_timeline` turns a list of events into a
  SimpleScalar-``ptrace``-style per-instruction stage table.

* :class:`StageMetrics` — a **per-stage metrics registry**: per-cycle
  occupancy histograms for the fetch queue, RUU, LSQ and R-stream
  Queue, and functional-unit issue counts split by P vs R stream.
  (Stall causes live in one place, the cycle accountant of
  :mod:`repro.uarch.accounting`.)  The registry folds into
  ``Stats.stage_metrics`` (hence ``Stats.state_dict()``), so the
  on-disk result cache and the reporting layer carry it for free.

* :class:`InvariantChecker` — a **runtime invariant checker** that,
  when enabled, validates pipeline legality as the simulation runs and
  raises a structured :class:`InvariantViolation` naming the invariant,
  cycle and instruction.  The catalogue (see :data:`INVARIANTS`)
  includes: commit order equals program order; a committed result must
  match its ISA re-execution oracle (this is what turns a silently
  committed corrupted value — an SDC — into a loud failure); the
  R stream never issues before its P result exists; R-stream Queue
  entries carry operands/results matching the P writeback; a flush
  leaves no stale entries anywhere; and structural capacity/ordering
  limits on the RUU, LSQ, ready list and R-stream Queue.

:class:`Observability` composes any subset of the three behind the
pipeline's single ``observer`` hook; build one from an
:class:`ObserveConfig` with :func:`build_observability`.  The harness
plumbs these through ``--trace``, ``--observe`` and
``--check-invariants`` (CLI) and the same-named :class:`SimJob` fields
(parallel layer); ``REPRO_CHECK_INVARIANTS=1`` turns the checker on
for every unfaulted harness run (the tier-1 smoke configuration).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional

from ..reese.comparator import describe_mismatch, p_value, reexecute, values_equal
from ..reese.faults import corrupt_value

#: Bump when TraceEvent field names / semantics change (golden traces).
EVENT_SCHEMA_VERSION = 1

#: Event kinds a tracer can emit, in pipeline-stage order.
EVENT_KINDS = (
    "fetch",
    "dispatch",
    "issue",
    "writeback",
    "rqueue_insert",
    "compare",
    "commit",
    "squash",
    "flush",
)

#: The invariant catalogue: name -> what must hold (documentation and
#: the closed set of values ``InvariantViolation.invariant`` can take).
INVARIANTS: Dict[str, str] = {
    "commit-order": "instructions commit in program order, exactly once",
    "commit-oracle": "a committed result equals its ISA re-execution",
    "r-before-p": "an R-stream instruction only issues after its P "
                  "result exists (and while it is queue-resident)",
    "rqueue-fidelity": "an R-stream Queue entry carries the operands "
                       "and result of the matching P writeback",
    "flush-residue": "a full flush leaves no stale entry in any "
                     "pipeline structure or the R-stream Queue",
    "structural": "occupancy never exceeds configured capacity and "
                  "window ordering/readiness bookkeeping stays legal",
}


class TraceEvent:
    """One structured pipeline event.

    ``seq`` is the pipeline-assigned dispatch id (unique across
    refetches; ``None`` for events raised after the instruction left
    the RUU), ``iseq`` the dynamic-trace sequence number (``None`` on
    the wrong path), ``stream`` is ``"P"`` or ``"R"``.
    """

    __slots__ = ("cycle", "kind", "stream", "seq", "iseq", "op", "fu",
                 "extra")

    def __init__(
        self,
        cycle: int,
        kind: str,
        stream: str,
        seq: Optional[int] = None,
        iseq: Optional[int] = None,
        op: Optional[str] = None,
        fu: Optional[str] = None,
        extra: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.cycle = cycle
        self.kind = kind
        self.stream = stream
        self.seq = seq
        self.iseq = iseq
        self.op = op
        self.fu = fu
        self.extra = extra

    def to_dict(self) -> Dict[str, Any]:
        """Flat dict with ``None`` fields omitted (stable golden form)."""
        out: Dict[str, Any] = {
            "cycle": self.cycle,
            "kind": self.kind,
            "stream": self.stream,
        }
        for name in ("seq", "iseq", "op", "fu"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        if self.extra:
            out.update(self.extra)
        return out

    def to_json(self) -> str:
        """Canonical one-line JSON (sorted keys, no whitespace)."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def __repr__(self) -> str:
        return f"<TraceEvent {self.to_json()}>"


# ----------------------------------------------------------------------
# sinks
# ----------------------------------------------------------------------


class EventSink:
    """Where a tracer delivers events.  Subclasses override both hooks."""

    def emit(self, event: TraceEvent) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush/release resources; called once at the end of a run."""


class RingBufferSink(EventSink):
    """Keep the most recent ``capacity`` events in memory.

    Overflow is not silent: every overwritten event increments
    :attr:`dropped`, which :class:`Observability` surfaces as
    ``stage_metrics["dropped_events"]`` (hence ``Stats.state_dict()``)
    and the metrics report turns into an explicit warning — a
    truncated event window must never masquerade as a complete one.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._buffer: List[TraceEvent] = []
        self._cursor = 0
        self.total = 0
        #: Events overwritten (lost) to capacity overflow.
        self.dropped = 0

    def emit(self, event: TraceEvent) -> None:
        self.total += 1
        if len(self._buffer) < self.capacity:
            self._buffer.append(event)
        else:
            self._buffer[self._cursor] = event
            self._cursor = (self._cursor + 1) % self.capacity
            self.dropped += 1

    def events(self) -> List[TraceEvent]:
        """Buffered events, oldest first."""
        return self._buffer[self._cursor:] + self._buffer[: self._cursor]


class JSONLSink(EventSink):
    """Write one canonical JSON line per event, atomically.

    Output is deterministic (sorted keys, no floats, no timestamps), so
    two runs of the same simulation produce byte-identical files — the
    property the golden-trace regression tests pin.

    The file appears atomically: lines stream to ``<path>.tmp`` and
    only a successful :meth:`close` flushes, fsyncs and renames it to
    ``path``.  A worker killed mid-run leaves at most a stale ``.tmp``
    behind — never a truncated half-line file at the final path that a
    later golden-trace comparison would read as a real (and baffling)
    mismatch.
    """

    def __init__(self, path) -> None:
        self.path = path
        self._tmp_path = f"{path}.tmp"
        self._file = open(self._tmp_path, "w", encoding="utf-8",
                          newline="\n")
        self.lines = 0

    def emit(self, event: TraceEvent) -> None:
        self._file.write(event.to_json())
        self._file.write("\n")
        self.lines += 1

    def close(self) -> None:
        if not self._file.closed:
            self._file.flush()
            os.fsync(self._file.fileno())
            self._file.close()
            os.replace(self._tmp_path, self.path)


class CallbackSink(EventSink):
    """Deliver each event to an arbitrary callable."""

    def __init__(self, callback: Callable[[TraceEvent], None]) -> None:
        self.callback = callback

    def emit(self, event: TraceEvent) -> None:
        self.callback(event)


# ----------------------------------------------------------------------
# event tracer
# ----------------------------------------------------------------------

#: pipeline notify() event -> (TraceEvent kind, default stream)
_NOTIFY_KINDS = {
    "fetch": ("fetch", "P"),
    "dispatch": ("dispatch", "P"),
    "issue": ("issue", "P"),
    "complete": ("writeback", "P"),
    "commit": ("commit", "P"),
    "squash": ("squash", "P"),
    "rqueue": ("rqueue_insert", "R"),
    "r_issue": ("issue", "R"),
    "r_complete": ("writeback", "R"),
    "compare": ("compare", "R"),
    "recover": ("flush", "P"),
}


class EventTracer:
    """Observer translating pipeline stage callbacks into TraceEvents."""

    def __init__(self, sink: EventSink) -> None:
        self.sink = sink

    def notify(self, event: str, cycle: int, entry=None, **info) -> None:
        mapped = _NOTIFY_KINDS.get(event)
        if mapped is None:
            return
        kind, stream = mapped
        seq = iseq = op = fu = None
        extra: Optional[Dict[str, Any]] = None
        if entry is not None:
            seq = entry.seq
            iseq = entry.trace_seq if entry.trace_seq >= 0 else None
            op = entry.op.name.lower()
            fu = entry.fu.name
            if entry.is_shadow:
                stream = "R"  # dispatch-duplication redundant copy
            if entry.wrong_path:
                extra = {"wp": True}
        else:
            rentry = info.get("rentry")
            if rentry is not None:
                iseq = rentry.seq
                op = rentry.dyn.op.name.lower()
                fu = rentry.fu.name
            else:
                iseq = info.get("trace_seq")
        if event == "compare":
            extra = dict(extra or ())
            extra["match"] = bool(info.get("match"))
        self.sink.emit(TraceEvent(cycle, kind, stream, seq, iseq, op, fu,
                                  extra))

    def finalize(self, stats) -> None:
        self.sink.close()


# ----------------------------------------------------------------------
# stage-timeline renderer
# ----------------------------------------------------------------------

#: Timeline columns: fetched, dispatched, issued, executed, entered the
#: R-stream Queue, redundant execution issued, committed.
TIMELINE_STAGES = ("F", "D", "I", "X", "Q", "R", "C")

#: Event kind -> column for events that carry a pipeline ``seq``
#: (dispatch-dup shadow copies share their original's row).
_ENTRY_STAGES = {
    "fetch": "F",
    "dispatch": "D",
    "issue": "I",
    "writeback": "X",
    "rqueue_insert": "Q",
    "commit": "C",
}
#: Event kind -> column for REESE events raised after the instruction
#: left the RUU (no ``seq``): they attach to the most recent row of
#: their dynamic instruction.
_TRACE_STAGES = {"issue": "R", "commit": "C"}


def render_timeline(
    events: Iterable[TraceEvent], trace, limit: Optional[int] = None
) -> str:
    """Per-instruction stage timeline of a traced run, as a text table.

    One row per pipeline ``seq`` in first-seen order, giving the cycle
    each stage first happened (columns :data:`TIMELINE_STAGES`), with
    ``wrong-path`` and ``squashed`` notes, followed by the cycles of any
    recovery flushes.  Squashed attempts keep their rows, so
    misprediction and error-recovery behaviour is visible.

    Args:
        events: the run's :class:`TraceEvent` stream, e.g. collected
            with ``EventTracer(CallbackSink(events.append))``.
        trace: the run's dynamic trace (supplies each row's pc).
        limit: render only the first ``limit`` rows.
    """
    first: Dict[int, TraceEvent] = {}  # seq -> its row's first event
    stages: Dict[int, Dict[str, int]] = {}  # seq -> stage -> cycle
    squashed = set()
    latest: Dict[int, int] = {}  # iseq -> seq of its newest row
    recoveries: List[int] = []
    for event in events:
        kind = event.kind
        if kind == "flush":
            recoveries.append(event.cycle)
            continue
        if event.seq is None:
            seq = latest.get(event.iseq)
            stage = _TRACE_STAGES.get(kind)
        else:
            seq = event.seq
            stage = _ENTRY_STAGES.get(kind)
            if seq not in first:
                first[seq] = event
                stages[seq] = {}
                if event.iseq is not None:
                    latest[event.iseq] = seq
            if kind == "squash":
                squashed.add(seq)
        if seq is not None and stage is not None:
            stages[seq].setdefault(stage, event.cycle)

    header = (
        f"{'seq':>5s} {'dyn':>5s} {'op':<8s} {'pc':>10s} "
        + " ".join(f"{stage:>6s}" for stage in TIMELINE_STAGES)
        + "  notes"
    )
    lines = [header, "-" * len(header)]
    for seq, event in list(first.items())[: limit or len(first)]:
        notes = []
        if event.extra and event.extra.get("wp"):
            notes.append("wrong-path")
        if seq in squashed:
            notes.append("squashed")
        cells = " ".join(
            f"{stages[seq].get(stage, ''):>6}" for stage in TIMELINE_STAGES
        )
        iseq = event.iseq  # None on the wrong path
        dyn = "-" if iseq is None else str(iseq)
        pc = 0 if iseq is None else trace[iseq].pc
        lines.append(
            f"{seq:>5d} {dyn:>5s} {event.op:<8s} {pc:#010x} {cells}  "
            f"{' '.join(notes)}"
        )
    if recoveries:
        lines.append(f"recoveries at cycles: {recoveries}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# per-stage metrics registry
# ----------------------------------------------------------------------


class StageMetrics:
    """Per-cycle occupancy histograms and the P/R FU issue split.

    Sampled once per simulated cycle via the pipeline's ``on_cycle``
    hook; zeroed with the other statistics when the ``measure_from``
    window opens; folded into ``Stats.stage_metrics`` at finalisation.
    Histogram bins are stored with **string keys** so the registry
    round-trips unchanged through the JSON result cache.
    """

    STRUCTURES = ("ifq", "ruu", "lsq", "rqueue")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.cycles_sampled = 0
        self.occupancy: Dict[str, Dict[int, int]] = {
            key: {} for key in self.STRUCTURES
        }

    def on_cycle(self, pipe) -> None:
        self.cycles_sampled += 1
        rqueue = pipe.rqueue
        for key, occ in (
            ("ifq", len(pipe.ifq)),
            ("ruu", len(pipe.ruu)),
            ("lsq", len(pipe.lsq)),
            ("rqueue", len(rqueue) if rqueue is not None else 0),
        ):
            hist = self.occupancy[key]
            hist[occ] = hist.get(occ, 0) + 1

    def state_dict(self, pipe) -> Dict[str, Any]:
        """JSON-serialisable registry (the ``Stats.stage_metrics`` value)."""
        out: Dict[str, Any] = {
            "schema": EVENT_SCHEMA_VERSION,
            "cycles_sampled": self.cycles_sampled,
            "occupancy": {
                key: {str(occ): count for occ, count in sorted(hist.items())}
                for key, hist in self.occupancy.items()
            },
        }
        total = pipe.fupool.issues
        r_only = pipe.fupool.issues_r
        out["fu_issued"] = {
            "P": {k: total[k] - r_only.get(k, 0) for k in sorted(total)},
            "R": {k: r_only[k] for k in sorted(r_only)},
        }
        return out


# ----------------------------------------------------------------------
# invariant checker
# ----------------------------------------------------------------------


class InvariantViolation(Exception):
    """A pipeline-legality invariant failed.

    Attributes:
        invariant: key into :data:`INVARIANTS`.
        cycle: simulation cycle at which the violation was detected.
        trace_seq: dynamic-instruction sequence number, or ``None``.
        detail: human-readable specifics (values, occupancies, ...).
    """

    def __init__(
        self,
        invariant: str,
        cycle: int,
        trace_seq: Optional[int] = None,
        detail: str = "",
    ) -> None:
        self.invariant = invariant
        self.cycle = cycle
        self.trace_seq = trace_seq
        self.detail = detail
        where = f"cycle {cycle}"
        if trace_seq is not None:
            where += f", instruction {trace_seq}"
        message = f"[{invariant}] at {where}"
        if detail:
            message += f": {detail}"
        super().__init__(message)

    def __reduce__(self):
        return type(self), (self.invariant, self.cycle, self.trace_seq,
                            self.detail)


class InvariantChecker:
    """Validate pipeline legality while the simulation runs.

    Event-driven checks fire from the pipeline's observer hook;
    structural sweeps run once per cycle from ``on_cycle``.  By default
    the first violation raises; with ``collect=True`` violations accrue
    in :attr:`violations` instead (for tests that expect several).
    """

    def __init__(self, collect: bool = False) -> None:
        self.collect = collect
        self.violations: List[InvariantViolation] = []
        self.checks = 0
        self._pipe = None
        self._completed: set = set()
        self._next_commit = 0

    def bind(self, pipe) -> None:
        self._pipe = pipe

    def _fail(
        self,
        invariant: str,
        cycle: int,
        trace_seq: Optional[int],
        detail: str,
    ) -> None:
        violation = InvariantViolation(invariant, cycle, trace_seq, detail)
        self.violations.append(violation)
        if not self.collect:
            raise violation

    # -- event-driven checks ---------------------------------------------

    def notify(self, event: str, cycle: int, entry=None, **info) -> None:
        self.checks += 1
        if event == "complete":
            if entry is not None and entry.trace_seq >= 0:
                self._completed.add(entry.trace_seq)
        elif event == "commit":
            self._check_commit(cycle, entry, info)
        elif event == "r_issue":
            self._check_r_issue(cycle, info)
        elif event == "rqueue":
            self._check_rqueue_insert(cycle, entry)
        elif event == "recover":
            self._check_flush(cycle)

    def _check_commit(self, cycle: int, entry, info) -> None:
        rentry = info.get("rentry")
        if rentry is not None:
            trace_seq = rentry.seq
            dyn = rentry.dyn
            actual = rentry.p_value
        else:
            if entry is None or entry.dyn is None:
                return
            trace_seq = entry.trace_seq
            dyn = entry.dyn
            actual = p_value(dyn)
            if entry.p_fault_bit is not None:
                actual = corrupt_value(actual, entry.p_fault_bit)
        if trace_seq != self._next_commit:
            self._fail(
                "commit-order", cycle, trace_seq,
                f"expected instruction {self._next_commit} to commit next",
            )
        self._next_commit = trace_seq + 1
        oracle = reexecute(dyn)
        if not values_equal(actual, oracle):
            self._fail(
                "commit-oracle", cycle, trace_seq,
                f"{dyn.op.name.lower()} committed a result that fails "
                f"re-execution: {describe_mismatch(actual, oracle)}",
            )

    def _check_r_issue(self, cycle: int, info) -> None:
        rentry = info.get("rentry")
        trace_seq = rentry.seq if rentry is not None else info.get("trace_seq")
        if trace_seq is None:
            return
        if trace_seq not in self._completed:
            self._fail(
                "r-before-p", cycle, trace_seq,
                "R-stream issue before the P result was written back",
            )
        pipe = self._pipe
        if pipe is not None and pipe.rqueue is not None:
            if not pipe.rqueue.contains(trace_seq):
                self._fail(
                    "r-before-p", cycle, trace_seq,
                    "R-stream issue for an instruction that is not "
                    "R-stream Queue resident",
                )

    def _check_rqueue_insert(self, cycle: int, entry) -> None:
        pipe = self._pipe
        if entry is None or pipe is None or pipe.rqueue is None:
            return
        rentry = pipe.rqueue.get(entry.trace_seq)
        if rentry is None:
            self._fail(
                "rqueue-fidelity", cycle, entry.trace_seq,
                "insertion event for an instruction the queue does not hold",
            )
            return
        expected = p_value(entry.dyn)
        if entry.p_fault_bit is not None:
            expected = corrupt_value(expected, entry.p_fault_bit)
        if not values_equal(rentry.p_value, expected):
            self._fail(
                "rqueue-fidelity", cycle, entry.trace_seq,
                "queued P value does not match the P writeback: "
                + describe_mismatch(rentry.p_value, expected),
            )
        if rentry.skip_r != entry.skip_r:
            self._fail(
                "rqueue-fidelity", cycle, entry.trace_seq,
                f"skip_r flag diverged (queue {rentry.skip_r}, "
                f"pipeline {entry.skip_r})",
            )

    def _check_flush(self, cycle: int) -> None:
        pipe = self._pipe
        if pipe is None:
            return
        residues = [
            name
            for name, structure in (
                ("ifq", pipe.ifq),
                ("ruu", pipe.ruu),
                ("lsq", pipe.lsq),
                ("ready", pipe.ready),
                ("create", pipe.create),
                ("rqueue", pipe.rqueue if pipe.rqueue is not None else ()),
            )
            if len(structure)
        ]
        if residues:
            self._fail(
                "flush-residue", cycle, None,
                f"stale entries survived the flush in: {', '.join(residues)}",
            )

    # -- per-cycle structural sweep --------------------------------------

    def on_cycle(self, pipe) -> None:
        self.checks += 1
        cycle = pipe.cycle
        config = pipe.config
        if len(pipe.ruu) > config.ruu_size:
            self._fail(
                "structural", cycle, None,
                f"RUU occupancy {len(pipe.ruu)} > size {config.ruu_size}",
            )
        if len(pipe.lsq) > config.lsq_size:
            self._fail(
                "structural", cycle, None,
                f"LSQ occupancy {len(pipe.lsq)} > size {config.lsq_size}",
            )
        rqueue = pipe.rqueue
        if rqueue is not None:
            if len(rqueue) > rqueue.capacity:
                self._fail(
                    "structural", cycle, None,
                    f"R-stream Queue occupancy {len(rqueue)} > capacity "
                    f"{rqueue.capacity}",
                )
            problems = rqueue.validate()
            if problems:
                self._fail(
                    "structural", cycle, None,
                    "R-stream Queue inconsistency: " + "; ".join(problems),
                )
        previous = None
        for entry in pipe.ruu:
            if entry.squashed:
                self._fail(
                    "structural", cycle, entry.trace_seq,
                    "squashed entry still RUU-resident",
                )
            if previous is not None and entry.seq < previous:
                self._fail(
                    "structural", cycle, entry.trace_seq,
                    "RUU entries out of dispatch order",
                )
            previous = entry.seq
        for entry in pipe.ready:
            if entry.issued or entry.deps != 0 or entry.squashed:
                self._fail(
                    "structural", cycle, entry.trace_seq,
                    f"illegal ready-list entry (issued={entry.issued}, "
                    f"deps={entry.deps}, squashed={entry.squashed})",
                )
        if pipe.commit_seq != self._next_commit:
            self._fail(
                "commit-order", cycle, None,
                f"pipeline commit cursor {pipe.commit_seq} diverged from "
                f"observed commits ({self._next_commit})",
            )


# ----------------------------------------------------------------------
# composition
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ObserveConfig:
    """Which observability pieces to attach to a run.

    Picklable and scalar-only, so the parallel layer can ship it to
    worker processes (see :class:`repro.harness.parallel.SimJob`).
    """

    #: Collect the per-stage metrics registry into ``Stats.stage_metrics``.
    metrics: bool = False
    #: Attach the runtime invariant checker (raises InvariantViolation).
    check_invariants: bool = False
    #: Write a JSONL event trace to this path.
    trace_path: Optional[str] = None
    #: Keep the last N events in memory instead of (or besides) a file;
    #: 0 disables the ring buffer.
    ring_capacity: int = 0

    @property
    def enabled(self) -> bool:
        return bool(
            self.metrics
            or self.check_invariants
            or self.trace_path
            or self.ring_capacity
        )


class _TeeSink(EventSink):
    """Fan one event stream out to several sinks."""

    def __init__(self, sinks: List[EventSink]) -> None:
        self.sinks = sinks

    def emit(self, event: TraceEvent) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


class Observability:
    """Composite observer: tracer and/or metrics and/or checker.

    Implements the full pipeline observer protocol (``notify``,
    ``on_cycle``, ``bind``, ``reset``, ``finalize``); each sub-piece is
    optional and the hooks skip whatever is absent.
    """

    def __init__(
        self,
        tracer: Optional[EventTracer] = None,
        metrics: Optional[StageMetrics] = None,
        checker: Optional[InvariantChecker] = None,
    ) -> None:
        self.tracer = tracer
        self.metrics = metrics
        self.checker = checker
        self._pipe = None

    def bind(self, pipe) -> None:
        self._pipe = pipe
        if self.checker is not None:
            self.checker.bind(pipe)

    def notify(self, event: str, cycle: int, entry=None, **info) -> None:
        # Checker first: a violation should surface before the event is
        # serialised (the trace written so far is the diagnostic).
        if self.checker is not None:
            self.checker.notify(event, cycle, entry, **info)
        if self.tracer is not None:
            self.tracer.notify(event, cycle, entry, **info)

    def on_cycle(self, pipe) -> None:
        if self.metrics is not None:
            self.metrics.on_cycle(pipe)
        if self.checker is not None:
            self.checker.on_cycle(pipe)

    def reset(self) -> None:
        """The ``measure_from`` window opened: restart the metrics (the
        checker's commit order and the event stream run on)."""
        if self.metrics is not None:
            self.metrics.reset()

    def _ring_sinks(self) -> List[RingBufferSink]:
        """Ring-buffer sinks reachable through the tracer (if any)."""
        if self.tracer is None:
            return []
        sink = self.tracer.sink
        sinks = sink.sinks if isinstance(sink, _TeeSink) else [sink]
        return [s for s in sinks if isinstance(s, RingBufferSink)]

    def finalize(self, stats) -> None:
        if self.metrics is not None:
            stats.stage_metrics = self.metrics.state_dict(self._pipe)
        rings = self._ring_sinks()
        if rings:
            # Surface ring-buffer overflow in the Stats payload even
            # when the metrics registry is off: dropped events are a
            # property of the run, not of the registry.
            stats.stage_metrics = dict(stats.stage_metrics or {})
            stats.stage_metrics["dropped_events"] = sum(
                ring.dropped for ring in rings
            )
        if self.tracer is not None:
            self.tracer.finalize(stats)


def build_observability(
    observe: Optional[ObserveConfig],
) -> Optional[Observability]:
    """Materialise an :class:`Observability` from a config (or ``None``).

    Returns ``None`` for a disabled config so the pipeline keeps its
    observer-free fast path.
    """
    if observe is None or not observe.enabled:
        return None
    sinks: List[EventSink] = []
    if observe.trace_path:
        sinks.append(JSONLSink(observe.trace_path))
    if observe.ring_capacity:
        sinks.append(RingBufferSink(observe.ring_capacity))
    tracer = None
    if sinks:
        sink = sinks[0] if len(sinks) == 1 else _TeeSink(sinks)
        tracer = EventTracer(sink)
    metrics = StageMetrics() if observe.metrics else None
    checker = InvariantChecker() if observe.check_invariants else None
    return Observability(tracer=tracer, metrics=metrics, checker=checker)
