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

Records use ``__slots__`` and plain attributes: the timing core touches
millions of these, so attribute access cost matters.  The constructor
takes the fields in slot order, the static instruction's facts first,
so the emulator binds those once per static instruction and builds each
record in one call with this execution's values.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from ..isa.instructions import FUClass, Op

Value = Union[int, float]


class DynInst:
    """One dynamically executed (retired) instruction."""

    __slots__ = (
        # The static instruction's facts, shared by all of its records.
        "static_index", # absolute index of the static instruction
        "pc",           # byte PC
        "op",           # Op
        "fu",           # FUClass of the executing unit
        "dst",          # unified destination register index or -1
        "srcs",         # tuple of unified source register indices
        "is_load",
        "is_store",
        "is_branch",
        "is_cond_branch",
        "imm",          # immediate
        # This execution's values.
        "seq",          # dynamic sequence number (index into the trace)
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
        imm: Value = 0,
        seq: int = 0,
        a: Value = 0,
        b: Value = 0,
        next_index: int = -1,
        result: Optional[Value] = None,
        ea: Optional[int] = None,
        store_value: Optional[Value] = None,
        taken: bool = False,
        target_index: int = -1,
    ) -> None:
        self.static_index = static_index
        self.pc = pc
        self.op = op
        self.fu = fu
        self.dst = dst
        self.srcs = srcs
        self.is_load = is_load
        self.is_store = is_store
        self.is_branch = is_branch
        self.is_cond_branch = is_cond_branch
        self.imm = imm
        self.seq = seq
        self.a = a
        self.b = b
        self.next_index = next_index
        self.result = result
        self.ea = ea
        self.store_value = store_value
        self.taken = taken
        self.target_index = target_index

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<DynInst #{self.seq} @{self.pc:#x} {self.op.name}"
            f" res={self.result!r} ea={self.ea!r}>"
        )


Trace = List[DynInst]
