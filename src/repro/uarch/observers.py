"""Pipeline observability: event tracing, stage metrics, invariants.

The timing core (:mod:`repro.uarch.pipeline`) exposes only end-of-run
aggregates through :class:`~repro.uarch.stats.Stats`; this module is
the instrumentation layer that makes cycle-level micro-behaviour —
R-stream instructions slotting into idle functional units, the
R-stream Queue draining before commit, P/R results meeting at the
comparator — visible and checkable.  Three cooperating pieces, all
**zero-overhead when off** (an unobserved pipeline takes exactly one
``hook is None`` branch per event site):

* :class:`EventTracer` — a structured **event trace**.  Every stage
  event (fetch/dispatch/issue/writeback/commit/flush/R-issue/compare,
  plus squash and R-queue insertion) becomes a :class:`TraceEvent`
  carrying cycle, stream tag (``P``/``R``), pipeline and trace sequence
  numbers, opcode and functional-unit class, emitted through a
  pluggable sink: :class:`JSONLSink` (deterministic, byte-stable JSON
  lines — the golden-file oracle for regression tests) or
  :class:`CallbackSink` (any callable, e.g. a list's ``append``).
  :func:`render_timeline` turns a list of events into a
  SimpleScalar-``ptrace``-style per-instruction stage table.

* :class:`StageMetrics` — a **per-stage metrics registry**: per-cycle
  occupancy histograms for the fetch queue, RUU, LSQ and R-stream
  Queue.  (Per-pool issue counts live in ``Stats.fu_issues`` and stall
  causes in the cycle accountant of :mod:`repro.uarch.accounting`.)
  The registry folds into ``Stats.stage_metrics`` (hence
  ``Stats.state_dict()``), so the on-disk result cache and the
  reporting layer carry it for free.

* :class:`InvariantChecker` — a **runtime invariant checker** that,
  when enabled, validates pipeline legality as the simulation runs and
  raises a structured :class:`InvariantViolation` naming the invariant,
  cycle and instruction.  The catalogue (see :data:`INVARIANTS`)
  includes: commit order equals program order; a committed result must
  match its ISA re-execution oracle (this is what turns a silently
  committed corrupted value — an SDC — into a loud failure); the
  R stream never issues before its P result exists; R-stream Queue
  entries carry operands/results matching the P writeback; a flush
  leaves no stale entries anywhere; structural capacity/ordering
  limits on the RUU, LSQ, ready list and R-stream Queue; and no
  wrong-path entry in the RUU once fetch is back on the correct path.

Each implements only the pipeline's stage hooks
(:data:`repro.uarch.observe.HOOKS`) it uses;
:func:`~repro.uarch.observe.build_observability` turns an
:class:`~repro.uarch.observe.ObserveConfig` into the observer list, the
cycle accountant included.  The harness plumbs
these through ``--trace``, ``--observe`` and ``--check-invariants``
(CLI) and the same-named :class:`SimJob` fields (parallel layer);
``REPRO_CHECK_INVARIANTS=1`` turns the checker on for every unfaulted
harness run (the tier-1 smoke configuration).
"""

from __future__ import annotations

import json
import os
import weakref
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
    "structural": "occupancy never exceeds configured capacity, "
                  "window ordering/readiness bookkeeping stays legal, "
                  "and a wrong-path entry is RUU-resident only while "
                  "fetch is on the wrong path (wp_active)",
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


class JSONLSink:
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


class CallbackSink:
    """Deliver each event to an arbitrary callable."""

    def __init__(self, callback: Callable[[TraceEvent], None]) -> None:
        self.callback = callback

    def emit(self, event: TraceEvent) -> None:
        self.callback(event)

    def close(self) -> None:
        """Nothing to release."""


# ----------------------------------------------------------------------
# event tracer
# ----------------------------------------------------------------------

def _event(kind: str, stream: str = "P", queued: bool = False):
    """A tracer hook emitting ``kind`` for the entry it is given."""

    def hook(self, cycle: int, entry) -> None:
        self._emit(cycle, kind, stream, entry, queued)

    return hook


class EventTracer:
    """Observer turning the pipeline's stage hooks into TraceEvents.

    ``sink`` is a :class:`JSONLSink`, a :class:`CallbackSink` or any
    object with their ``emit(event)`` and ``close()``.
    """

    def __init__(self, sink) -> None:
        self.sink = sink
        self._reese = False

    def bind(self, pipe) -> None:
        # Under REESE every compare and commit is an R-stream Queue event.
        self._reese = pipe.rqueue is not None

    def _emit(self, cycle: int, kind: str, stream: str, entry, queued: bool,
              extra: Optional[Dict[str, Any]] = None) -> None:
        """Emit ``kind`` for ``entry``.  An R-stream Queue (``queued``)
        entry has left the RUU: it reports no ``seq``, and the unit its
        R execution uses."""
        if queued:
            seq, iseq, fu = None, entry.trace_seq, entry.r_fu
        else:
            seq, iseq, fu = entry.seq, entry.trace_seq, entry.fu
            if iseq < 0:
                iseq = None  # wrong path
                extra = {"wp": True}
            if entry.is_shadow:
                stream = "R"  # dispatch-duplication redundant copy
        self.sink.emit(TraceEvent(cycle, kind, stream, seq, iseq,
                                  entry.static.op.name.lower(), fu.name,
                                  extra))

    on_fetch = _event("fetch")
    on_dispatch = _event("dispatch")
    on_issue = _event("issue")
    on_complete = _event("writeback")
    on_squash = _event("squash")
    on_rqueue = _event("rqueue_insert", "R")
    on_r_issue = _event("issue", "R", queued=True)
    on_r_complete = _event("writeback", "R", queued=True)

    def on_compare(self, cycle: int, entry, match: bool) -> None:
        self._emit(cycle, "compare", "R", entry, self._reese,
                   {"match": bool(match)})

    def on_commit(self, cycle: int, entry) -> None:
        self._emit(cycle, "commit", "P", entry, self._reese)

    def on_recover(self, cycle: int) -> None:
        self.sink.emit(TraceEvent(cycle, "flush", "P"))

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
        pc = 0 if iseq is None else trace[iseq].static.pc
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
    """Per-cycle occupancy histograms of the pipeline's queues.

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

    def state_dict(self) -> Dict[str, Any]:
        """JSON-serialisable registry (the ``Stats.stage_metrics`` value)."""
        return {
            "schema": EVENT_SCHEMA_VERSION,
            "cycles_sampled": self.cycles_sampled,
            "occupancy": {
                key: {str(occ): count for occ, count in sorted(hist.items())}
                for key, hist in self.occupancy.items()
            },
        }

    def finalize(self, stats) -> None:
        stats.stage_metrics.update(self.state_dict())


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

    Event-driven checks fire from the pipeline's stage hooks;
    structural sweeps run once per cycle from ``on_cycle``.  By default
    the first violation raises; with ``collect=True`` violations accrue
    in :attr:`violations` instead (for tests that expect several).
    Its checks read the machine's structures, so it holds its pipeline,
    but only by a weak reference: the pipeline holds the checker's hooks.
    """

    def __init__(self, collect: bool = False) -> None:
        self.collect = collect
        self.violations: List[InvariantViolation] = []
        self.checks = 0
        self._pipe = None
        self._rqueue = None  # the pipeline's R-stream Queue, under REESE
        self._completed: set = set()
        self._next_commit = 0

    def bind(self, pipe) -> None:
        self._pipe = weakref.ref(pipe)
        self._rqueue = pipe.rqueue

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

    def on_complete(self, cycle: int, entry) -> None:
        if entry.trace_seq >= 0:
            self._completed.add(entry.trace_seq)

    def on_commit(self, cycle: int, entry) -> None:
        self.checks += 1
        trace_seq = entry.trace_seq
        dyn = entry.dyn
        if self._rqueue is not None:
            actual = entry.p_value  # the value the comparator passed
        else:
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
                f"{entry.static.op.name.lower()} committed a result that "
                f"fails re-execution: {describe_mismatch(actual, oracle)}",
            )

    def on_r_issue(self, cycle: int, entry) -> None:
        self.checks += 1
        trace_seq = entry.trace_seq
        if trace_seq not in self._completed:
            self._fail(
                "r-before-p", cycle, trace_seq,
                "R-stream issue before the P result was written back",
            )
        if self._rqueue is not None and trace_seq not in self._rqueue.by_seq:
            self._fail(
                "r-before-p", cycle, trace_seq,
                "R-stream issue for an instruction that is not "
                "R-stream Queue resident",
            )

    def on_rqueue(self, cycle: int, entry) -> None:
        self.checks += 1
        if self._rqueue is None:
            return
        if self._rqueue.by_seq.get(entry.trace_seq) is not entry:
            self._fail(
                "rqueue-fidelity", cycle, entry.trace_seq,
                "insertion event for an instruction the queue does not hold",
            )
            return
        expected = p_value(entry.dyn)
        if entry.p_fault_bit is not None:
            expected = corrupt_value(expected, entry.p_fault_bit)
        if not values_equal(entry.p_value, expected):
            self._fail(
                "rqueue-fidelity", cycle, entry.trace_seq,
                "queued P value does not match the P writeback: "
                + describe_mismatch(entry.p_value, expected),
            )

    def on_recover(self, cycle: int) -> None:
        self.checks += 1
        pipe = self._pipe() if self._pipe is not None else None
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
        wp_active = pipe.wp_active
        for entry in pipe.ruu:
            if entry.squashed:
                self._fail(
                    "structural", cycle, entry.trace_seq,
                    "squashed entry still RUU-resident",
                )
            if entry.wrong_path and not wp_active:
                self._fail(
                    "structural", cycle, None,
                    "wrong-path entry RUU-resident while fetch is on "
                    "the correct path",
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
