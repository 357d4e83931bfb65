"""Dynamic-trace records produced by the functional emulator.

The timing models are *execution-driven along the correct path*: the
functional emulator runs first and emits one :class:`DynInst` per
retired instruction, carrying everything the micro-architectural models
need —

* operand **values** (``a``, ``b``) so REESE's R stream can re-execute
  the instruction from its R-stream Queue entry,
* the architectural **result** so the comparator has the P-stream value,
* load/store **effective addresses** for the cache and LSQ models,
* branch **outcome and target** as ground truth for the predictor, and
* ``next_index``, the static index of the following dynamic instruction,
  which is where fetch must resume after a squash or an error-recovery
  refetch.

A record holds only the values of its one execution.  The facts of its
static instruction (index, PC, op, unit, registers, class flags,
immediate) live in one immutable :class:`StaticInst` per instruction,
built once per program by :func:`static_records` and shared through
``dyn.static`` by every record of the instruction, by the emulator's
decoded program and by the pipeline's wrong-path fetch.  A record's
position in the trace is its index there; it stores no sequence number,
so a slice of a trace is a trace.

A record carries only the values its kind sets.  :class:`DynInst`, the
base of the record family and the record of ``nop`` and ``put*``, holds
the static record and the operands; its class supplies every other
value (no result, address or store value, not taken, target -1, and the
fall-through ``static.static_index + 1`` as ``next_index``).  Each
subclass adds slots for its own values: :class:`DynCompute` the result,
:class:`DynLoad` the result and address, :class:`DynStore` the address
and store value, and :class:`DynControl` (branches, jumps and ``halt``)
the successor, result, outcome and target.  Every record reads alike;
only a kind's own values can be written.

Records use ``__slots__`` and plain attributes: the timing core touches
millions of these, so attribute access cost matters.  Hot loops load
``dyn.static`` once per record.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union
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


Trace = List[DynInst]
