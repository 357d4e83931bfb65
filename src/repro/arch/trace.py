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
    """One dynamically executed (retired) instruction."""

    __slots__ = (
        "static",       # the StaticInst of the instruction
        "a",            # value of rs1 at execution time (0 if unused)
        "b",            # value of rs2 at execution time (0 if unused)
        "next_index",   # static index of the next dynamic instruction
        "result",       # architectural result value (None if none)
        "ea",           # effective address for loads/stores, else None
        "store_value",  # value stored to memory (stores only)
        "taken",        # branch outcome (branches only)
        "target_index", # taken-path static target index (branches only)
    )

    def __init__(
        self,
        static: StaticInst = StaticInst(),
        a: Value = 0,
        b: Value = 0,
        next_index: int = -1,
        result: Optional[Value] = None,
        ea: Optional[int] = None,
        store_value: Optional[Value] = None,
        taken: bool = False,
        target_index: int = -1,
    ) -> None:
        self.static = static
        self.a = a
        self.b = b
        self.next_index = next_index
        self.result = result
        self.ea = ea
        self.store_value = store_value
        self.taken = taken
        self.target_index = target_index

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        static = self.static
        return (
            f"<DynInst @{static.pc:#x} {static.op.name}"
            f" res={self.result!r} ea={self.ea!r}>"
        )


Trace = List[DynInst]
