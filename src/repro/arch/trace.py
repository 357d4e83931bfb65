"""Dynamic traces produced by the functional emulator.

The timing models are *execution-driven along the correct path*: the
functional emulator runs first and records, per retired instruction,
everything the micro-architectural models need —

* operand **values** (``a``, ``b``) so REESE's R stream can re-execute
  the instruction from its R-stream Queue entry,
* the architectural **result** so the comparator has the P-stream value,
* load/store **effective addresses** for the cache and LSQ models,
* branch **outcome and target** as ground truth for the predictor, and
* ``next_index``, the static index of the following dynamic instruction,
  which is where fetch must resume after a squash or an error-recovery
  refetch.

The facts of a static instruction (index, PC, op, unit, registers,
class flags, immediate) live in one immutable :class:`StaticInst` per
instruction, built once per program by :func:`static_records` and
shared by every record of the instruction, by the emulator's decoded
program and by the pipeline's wrong-path fetch.

**A trace is packed.**  The emulator returns a :class:`PackedTrace`:
one 32-bit ``array('i')`` per field, holding each retired instruction's
static index, its operands ``a`` and ``b``, and two values whose role
depends on the instruction's kind:

===================  ==================  ==========================
record class         ``value``           ``addr``
===================  ==================  ==========================
:class:`DynInst`     0                   0
:class:`DynCompute`  result              0
:class:`DynLoad`     result              effective address
:class:`DynStore`    stored value        effective address
:class:`DynControl`  outcome (0 or 1)    taken-path target index
===================  ==================  ==========================

Everything else a record holds is fixed by its :class:`StaticInst` and
derived: the ``None`` of a value a kind never sets, the fall-through,
a call's link, a branch's successor (its target when taken, else the
fall-through), a conditional branch's 0/1 result, and ``halt``'s
successor (itself).  A control transfer's target sits in the address
column, which those kinds otherwise leave empty, so every successor a
whole-trace pass needs is read from the columns.  A record with a value
the columns cannot hold — a float, an int outside [-2**31, 2**31), a
``None`` or ``bool`` where its kind stores an int, or values the
derivations would not give back (a fault hook's doing) — is kept whole
in :attr:`PackedTrace.escapes` by position, with zeros in the columns
but its static index, so the round trip is exact.

**Records are views.**  The record family below is what the pipeline
runs on.  ``trace[i]`` builds one record, in one call of a
per-static-index constructor: a pipeline run on a packed trace fetches
this way and holds no whole-trace list.  :meth:`PackedTrace.records`
materializes a window once for the runs that share it (a sampled
interval's configs, the configs of one trace in a figure).  Every call
builds new records (an escaped record is copied), so no view can
change the trace.  The emulator builds records itself only to escape
them and for an inject hook (see :mod:`repro.arch.emulator`): the hook
gets a real record, may write its kind's own values, and the trace
packs the record as the hook left it (:meth:`PackedTrace.append`),
escaping it when the columns cannot rebuild it.
Whole-trace passes (cache and predictor warm-up, the mispredict
profile, workload analysis) read the columns through
:meth:`PackedTrace.rows` and build no record; given a list of records
they pack it first (:func:`packed`).

A record carries only the values its kind sets.  :class:`DynInst`, the
base of the record family and the record of ``nop`` and ``put*``, holds
the static record and the operands; its class supplies every other
value (no result, address or store value, not taken, target -1, and the
fall-through ``static.static_index + 1`` as ``next_index``).  Each
subclass adds slots for its own values: :class:`DynCompute` the result,
:class:`DynLoad` the result and address, :class:`DynStore` the address
and store value, and :class:`DynControl` (branches, jumps and ``halt``)
the successor, result, outcome and target.  Every record reads alike;
only a kind's own values can be written.  A record's position in its
trace is its index there; it stores no sequence number.
"""

from __future__ import annotations

from array import array
from copy import copy
from itertools import chain
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple, Union)
from weakref import WeakKeyDictionary

from ..isa.instructions import FUClass, INST_SIZE, Op, OPINFO
from ..isa.program import Program, TEXT_BASE

Value = Union[int, float]


class StaticInst:
    """The facts of one static instruction; immutable once built."""

    __slots__ = (
        "static_index",  # absolute index of the static instruction
        "pc",            # byte PC
        "op",            # Op
        "fu",            # FUClass of the executing unit
        "dst",           # unified destination register index or -1
        "srcs",          # tuple of unified source register indices
        "is_load",
        "is_store",
        "is_branch",
        "is_cond_branch",
        "is_halt",
        "imm",           # immediate
    )

    def __init__(
        self,
        static_index: int = 0,
        pc: int = 0,
        op: Op = Op.NOP,
        fu: FUClass = FUClass.NONE,
        dst: int = -1,
        srcs: Tuple[int, ...] = (),
        is_load: bool = False,
        is_store: bool = False,
        is_branch: bool = False,
        is_cond_branch: bool = False,
        is_halt: bool = False,
        imm: Value = 0,
    ) -> None:
        values = (static_index, pc, op, fu, dst, srcs, is_load, is_store,
                  is_branch, is_cond_branch, is_halt, imm)
        for name, value in zip(StaticInst.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"StaticInst.{name} is read-only")

    def __reduce__(self):
        return StaticInst, tuple(getattr(self, name)
                                 for name in StaticInst.__slots__)


_STATIC: "WeakKeyDictionary[Program, Tuple[StaticInst, ...]]" = (
    WeakKeyDictionary()
)


def static_records(program: Program) -> Tuple[StaticInst, ...]:
    """The :class:`StaticInst` of each instruction of ``program``, by
    static index; built on the first call for a program."""
    records = _STATIC.get(program)
    if records is None:
        records = []
        for idx, inst in enumerate(program.code):
            info = OPINFO[inst.op]
            records.append(StaticInst(
                idx, TEXT_BASE + idx * INST_SIZE, inst.op, info.fu, inst.dst(),
                inst.srcs(), info.is_load, info.is_store, info.is_branch,
                info.is_cond_branch, info.is_halt, inst.imm))
        records = _STATIC[program] = tuple(records)
    return records


class DynInst:
    """One dynamically executed (retired) instruction: the base record.

    ``nop``, ``putint`` and ``putch`` records are of this class.  It
    holds only the static record and the operand values; the class
    itself supplies every value a kind never sets: no result, effective
    address or store value, not taken, no target, and the fall-through
    successor.  Each subclass adds the slots of the values its kind
    sets, which shadow these, and its ``__init__`` sets every slot
    itself, so building a record is one Python-level call.
    """

    __slots__ = (
        "static",       # the StaticInst of the instruction
        "a",            # value of rs1 at execution time (0 if unused)
        "b",            # value of rs2 at execution time (0 if unused)
    )

    result: Optional[Value] = None      # architectural result value
    ea: Optional[int] = None            # load/store effective address
    store_value: Optional[Value] = None  # value stored to memory
    taken: bool = False                 # branch outcome
    target_index: int = -1              # taken-path static target index

    def __init__(self, static: StaticInst = StaticInst(), a: Value = 0,
                 b: Value = 0) -> None:
        self.static = static
        self.a = a
        self.b = b

    @property
    def next_index(self) -> int:
        """Static index of the next dynamic instruction: the fall-through."""
        return self.static.static_index + 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        static = self.static
        return (
            f"<{type(self).__name__} @{static.pc:#x} {static.op.name}"
            f" res={self.result!r} ea={self.ea!r}>"
        )


class DynCompute(DynInst):
    """A compute op (integer or FP): adds its result."""

    __slots__ = ("result",)

    def __init__(self, static: StaticInst = StaticInst(), a: Value = 0,
                 b: Value = 0, result: Optional[Value] = None) -> None:
        self.static = static
        self.a = a
        self.b = b
        self.result = result


class DynLoad(DynInst):
    """A load: adds the loaded value and the effective address."""

    __slots__ = ("result", "ea")

    def __init__(self, static: StaticInst = StaticInst(), a: Value = 0,
                 b: Value = 0, result: Optional[Value] = None,
                 ea: Optional[int] = None) -> None:
        self.static = static
        self.a = a
        self.b = b
        self.result = result
        self.ea = ea


class DynStore(DynInst):
    """A store: adds the effective address and the stored value."""

    __slots__ = ("ea", "store_value")

    def __init__(self, static: StaticInst = StaticInst(), a: Value = 0,
                 b: Value = 0, ea: Optional[int] = None,
                 store_value: Optional[Value] = None) -> None:
        self.static = static
        self.a = a
        self.b = b
        self.ea = ea
        self.store_value = store_value


class DynControl(DynInst):
    """A branch, jump or ``halt``: adds the successor, the result (a
    branch's outcome as 0/1, a call's link), the outcome and the
    taken-path target.  A ``halt``'s successor is itself."""

    __slots__ = ("next_index", "result", "taken", "target_index")

    def __init__(self, static: StaticInst = StaticInst(), a: Value = 0,
                 b: Value = 0, next_index: int = -1,
                 result: Optional[Value] = None, taken: bool = False,
                 target_index: int = -1) -> None:
        self.static = static
        self.a = a
        self.b = b
        self.next_index = next_index
        self.result = result
        self.taken = taken
        self.target_index = target_index


#: The records of a trace window, by position: what the pipeline runs on.
Records = List[DynInst]

#: The 32-bit signed range of a packed column.
_LOW, _HIGH = -(1 << 31), 1 << 31
if array("i").itemsize != 4:  # pragma: no cover - every CPython target
    raise ImportError("packed traces need a 4-byte array('i')")

#: The values a record holds besides its static record, compared when a
#: record is packed.
_VALUE_FIELDS = ("a", "b", "result", "ea", "store_value", "taken",
                 "target_index", "next_index")

#: What materializes one record of a static instruction from its
#: ``(a, b, value, addr)`` column values.
Maker = Callable[[int, int, int, int], DynInst]


def record_maker(static: StaticInst) -> Maker:
    """The record constructor of ``static``'s kind: it takes a record's
    ``(a, b, value, addr)`` column values (see the module docstring's
    table) and derives the values ``static`` fixes."""
    idx = static.static_index
    op = static.op
    if static.is_load:
        return lambda a, b, v, x: DynLoad(static, a, b, v, x)
    if static.is_store:
        return lambda a, b, v, x: DynStore(static, a, b, x, v)
    if static.is_cond_branch:
        fall = idx + 1
        return lambda a, b, v, x: DynControl(static, a, b, x if v else fall,
                                             v, v != 0, x)
    if static.is_branch:  # j, jal, jr, jalr
        link = (TEXT_BASE + (idx + 1) * INST_SIZE
                if op in (Op.JAL, Op.JALR) else None)
        return lambda a, b, v, x: DynControl(static, a, b, x, link, True, x)
    if static.is_halt:
        return lambda a, b, v, x: DynControl(static, a, b, idx)
    if op in (Op.NOP, Op.PUTINT, Op.PUTCH):
        return lambda a, b, v, x: DynInst(static, a, b)
    return lambda a, b, v, x: DynCompute(static, a, b, v)


def _roles(dyn: DynInst) -> Tuple[Value, Value]:
    """``dyn``'s ``(value, addr)`` column values, as the record holds
    them (a branch outcome stays a ``bool``)."""
    cls = type(dyn)
    if cls is DynControl:
        return dyn.taken, dyn.target_index
    if cls is DynLoad:
        return dyn.result, dyn.ea
    if cls is DynStore:
        return dyn.store_value, dyn.ea
    if cls is DynCompute:
        return dyn.result, 0
    return 0, 0


def _same(built: DynInst, dyn: DynInst) -> bool:
    """Whether two records agree slot for slot, type for type."""
    if type(built) is not type(dyn) or built.static is not dyn.static:
        return False
    for name in _VALUE_FIELDS:
        mine, theirs = getattr(built, name), getattr(dyn, name)
        if type(mine) is not type(theirs) or mine != theirs:
            return False
    return True


class PackedTrace:
    """A dynamic trace as columns (see the module docstring).

    ``index``, ``a``, ``b``, ``value`` and ``addr`` are ``array('i')``
    columns of equal length, one entry per retired instruction;
    ``escapes`` maps the position of each record the columns cannot
    rebuild to the record itself; ``statics`` holds the
    :class:`StaticInst` of each static index.  ``len``, iteration,
    ``trace[i]`` and ``trace[i:j]`` work as on a list of records, and
    give new ones.
    """

    __slots__ = ("statics", "index", "a", "b", "value", "addr", "escapes",
                 "_makers")

    def __init__(self, statics: Sequence[Optional[StaticInst]]) -> None:
        self.statics = statics
        self.index = array("i")
        self.a = array("i")
        self.b = array("i")
        self.value = array("i")
        self.addr = array("i")
        self.escapes: Dict[int, DynInst] = {}
        self._makers: Optional[List[Optional[Maker]]] = None

    @classmethod
    def from_records(cls, records: Iterable[DynInst],
                     statics: Optional[Sequence[StaticInst]] = None,
                     ) -> "PackedTrace":
        """Pack ``records``.  Without ``statics`` the static records are
        the records' own, the first seen per static index."""
        records = list(records)
        if statics is None:
            table: Dict[int, StaticInst] = {}
            for dyn in records:
                table.setdefault(dyn.static.static_index, dyn.static)
            statics = [table.get(idx) for idx in range(max(table, default=-1)
                                                        + 1)]
        trace = cls(statics)
        for dyn in records:
            trace.append(dyn)
        return trace

    def __reduce__(self):
        return _unpickle, (self.statics, self.index, self.a, self.b,
                           self.value, self.addr, self.escapes)

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, key):
        if isinstance(key, slice):
            start, stop, step = key.indices(len(self.index))
            if step != 1:
                raise ValueError("a packed trace slices with step 1 only")
            return self.records(start, stop)
        # One record, as fetch reads them: the index column raises
        # IndexError past either end.
        idx = self.index[key]
        if self.escapes:
            if key < 0:
                key += len(self.index)
            if key in self.escapes:
                return copy(self.escapes[key])
        return (self._makers or self._record_makers())[idx](
            self.a[key], self.b[key], self.value[key], self.addr[key])

    def __iter__(self) -> Iterator[DynInst]:
        for start in range(0, len(self.index), 4096):
            yield from self.records(start, start + 4096)

    def _record_makers(self) -> List[Optional[Maker]]:
        """The record constructor of each static index (built once)."""
        if self._makers is None:
            self._makers = [None if static is None else record_maker(static)
                            for static in self.statics]
        return self._makers

    def records(self, start: int = 0, stop: Optional[int] = None) -> Records:
        """Materialize the records of positions ``[start, stop)``: new
        records, an escaped one copied."""
        start, stop, _ = slice(start, stop).indices(len(self.index))
        makers = self._record_makers()
        out = [makers[idx](a, b, v, x) for idx, a, b, v, x in zip(
            self.index[start:stop], self.a[start:stop], self.b[start:stop],
            self.value[start:stop], self.addr[start:stop])]
        for pos, dyn in self.escapes.items():
            if start <= pos < stop:
                out[pos - start] = copy(dyn)
        return out

    def rows(self, start: int = 0, stop: Optional[int] = None,
             ) -> Iterator[Tuple[int, Value, Value]]:
        """``(static_index, value, addr)`` of positions ``[start, stop)``.

        What whole-trace passes read.  An escaped record yields its own
        values in those roles (:func:`_roles`), whatever their type.
        """
        start, stop, _ = slice(start, stop).indices(len(self.index))
        cols = (self.index, self.value, self.addr)
        cuts = sorted(pos for pos in self.escapes if start <= pos < stop)
        if not cuts:
            if start == 0 and stop == len(self.index):
                return zip(*cols)
            return zip(*(col[start:stop] for col in cols))
        return chain.from_iterable(self._segments(start, stop, cuts))

    def _segments(self, start: int, stop: int, cuts: List[int]):
        index, value, addr = self.index, self.value, self.addr
        for pos in cuts:
            yield zip(index[start:pos], value[start:pos], addr[start:pos])
            yield ((index[pos], *_roles(self.escapes[pos])),)
            start = pos + 1
        yield zip(index[start:stop], value[start:stop], addr[start:stop])

    def append(self, dyn: DynInst) -> None:
        """Pack ``dyn`` at the end; a record the columns cannot rebuild
        slot for slot goes to :attr:`escapes`."""
        static = dyn.static
        idx = static.static_index
        value, addr = _roles(dyn)
        if type(dyn) is DynControl and type(value) is bool:
            value = int(value)
        fields = (dyn.a, dyn.b, value, addr)
        if (all(type(field) is int and _LOW <= field < _HIGH
                for field in fields)
                and 0 <= idx < len(self.statics)
                and self.statics[idx] is static
                and _same(self._record_makers()[idx](*fields), dyn)):
            self.a.append(dyn.a)
            self.b.append(dyn.b)
            self.value.append(value)
            self.addr.append(addr)
            self.index.append(idx)
        else:
            self.escape(dyn)

    def escape(self, dyn: DynInst) -> None:
        """Keep ``dyn`` whole at the next position.  Undoes a partial
        append of its columns (``index`` is appended last)."""
        pos = len(self.index)
        for column in (self.a, self.b, self.value, self.addr):
            del column[pos:]
            column.append(0)
        self.escapes[pos] = dyn
        self.index.append(dyn.static.static_index)


def _unpickle(statics, index, a, b, value, addr, escapes) -> PackedTrace:
    trace = PackedTrace(statics)
    trace.index, trace.a, trace.b = index, a, b
    trace.value, trace.addr, trace.escapes = value, addr, escapes
    return trace


#: A trace as passes and the pipeline take it: packed, or its records.
Trace = Union[PackedTrace, Records]


def packed(trace: Trace) -> PackedTrace:
    """``trace`` itself if packed, else its records packed."""
    if isinstance(trace, PackedTrace):
        return trace
    return PackedTrace.from_records(trace)
