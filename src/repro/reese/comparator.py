"""P-stream / R-stream result comparison.

REESE "tests for errors at the pipeline level by comparing the results
of individual instructions" (paper §3).  For each instruction class the
*comparable value* is the quantity a soft error could corrupt:

=====================  ==================================================
instruction class       comparable value
=====================  ==================================================
ALU / mul / div / FP    the arithmetic result
load                    the loaded value
store                   (effective address, store data)
conditional branch      the resolved direction (0/1)
``jal`` / ``jalr``      the link value (and, for ``jalr``, the target)
``jr``                  the computed target
``j`` / nop / output    nothing data-dependent (always verifies)
=====================  ==================================================

:func:`reexecute` recomputes the comparable value *from the operand
values stored in the R-stream Queue entry*, through the exact same
semantic functions the P stream used (:mod:`repro.isa.semantics`), so a
fault-free P/R pair always compares equal — verified by property tests.

Floats are compared by IEEE-754 bit pattern, which is both what the
hardware comparator would do and robust to NaN.

The pipeline reads these values once per instruction, so :func:`bind`
resolves per opcode the unit that re-executes it and which comparable
its records carry (and, for compute ops and conditional branches, the
semantic function :func:`reexecute` reaches): the common kinds are then
read without a call to :func:`p_value` or :func:`reexecute`.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple, Union

from ..arch.trace import DynInst
from ..isa.instructions import INST_SIZE, OPINFO, FUClass, Op
from ..isa.program import TEXT_BASE
from ..isa.semantics import (
    _BRANCH_TAKEN,
    _COMPUTE,
    branch_taken,
    effective_address,
    float_to_bits,
)

Comparable = Union[int, float, Tuple, None]

# Bound once: the helpers below run per instruction, and a module
# global is far cheaper to read than an enum class attribute or a call.
_JAL, _JR, _JALR = Op.JAL, Op.JR, Op.JALR

#: Comparable kinds (:func:`bind`): how a record's P value is read and
#: its R value recomputed.
CMP_LOAD = 0      # the loaded value, on both sides
CMP_COMPUTE = 1   # P: ``result``; R: ``fn(a, b, imm)``
CMP_BRANCH = 2    # P: ``int(taken)``; R: ``int(fn(a, b))``
CMP_CALL = 3      # P: :func:`p_value`; R: :func:`reexecute`


def bind(op: Op) -> Tuple[FUClass, int, Optional[Callable]]:
    """``(r_fu, kind, fn)`` for every record of ``op``: the unit its R
    execution uses, its comparable kind and, for compute ops and
    conditional branches, the semantic function :func:`reexecute`
    dispatches to (``None`` for the other kinds).  Loads re-read through
    a memory port; address and direction recomputation (stores,
    branches) and unit-less ops run on an integer ALU."""
    info = OPINFO[op]
    if info.is_load:
        return FUClass.MEM_PORT, CMP_LOAD, None
    if info.is_store or info.is_branch or info.fu is FUClass.NONE:
        r_fu = FUClass.INT_ALU
    else:
        r_fu = info.fu
    fn = None
    if info.is_cond_branch:
        fn = _BRANCH_TAKEN.get(op)
        kind = CMP_BRANCH
    elif not info.is_store:
        fn = _COMPUTE.get(op)
        kind = CMP_COMPUTE
    return (r_fu, kind, fn) if fn is not None else (r_fu, CMP_CALL, None)


#: Op -> its :func:`bind`, bound once: it depends on the op alone.
BINDINGS = {op: bind(op) for op in Op}


def p_value(dyn: DynInst) -> Comparable:
    """The P-stream comparable value of a dynamic instruction."""
    op = dyn.op
    if dyn.is_store:
        return (dyn.ea, dyn.store_value)
    if dyn.is_load:
        return dyn.result
    if dyn.is_cond_branch:
        return int(dyn.taken)
    if op is _JAL:
        return dyn.result
    if op is _JR:
        return dyn.target_index
    if op is _JALR:
        return (dyn.result, dyn.target_index)
    if op in _COMPUTE:
        return dyn.result
    return None  # j, nop, halt, putint/putch: nothing data-dependent


def reexecute(dyn: DynInst) -> Comparable:
    """Recompute the comparable value from stored operands (the R stream).

    Loads return the trace's loaded value: the R-stream load re-reads
    the same (unmodified, store-committed-in-order) memory location and
    is guaranteed an L1 hit (paper §4.4), so absent a fault it observes
    the identical value.
    """
    op = dyn.op
    if dyn.is_store:
        return (effective_address(dyn.a, dyn.imm), dyn.store_value)
    if dyn.is_load:
        return dyn.result
    if dyn.is_cond_branch:
        return int(branch_taken(op, dyn.a, dyn.b))
    if op is _JAL:
        return TEXT_BASE + (dyn.static_index + 1) * INST_SIZE
    if op is _JR:
        return (int(dyn.a) - TEXT_BASE) // INST_SIZE
    if op is _JALR:
        link = TEXT_BASE + (dyn.static_index + 1) * INST_SIZE
        return (link, (int(dyn.a) - TEXT_BASE) // INST_SIZE)
    if op in _COMPUTE:
        return _COMPUTE[op](dyn.a, dyn.b, dyn.imm)
    return None


def values_equal(p: Comparable, r: Comparable) -> bool:
    """Hardware-comparator equality: floats compared bit-for-bit."""
    if type(p) is int and type(r) is int:
        return p == r  # the common case, decided before any dispatch
    if isinstance(p, tuple) and isinstance(r, tuple):
        return len(p) == len(r) and all(
            values_equal(pi, ri) for pi, ri in zip(p, r)
        )
    if isinstance(p, float) or isinstance(r, float):
        if not (isinstance(p, float) and isinstance(r, float)):
            return False
        return float_to_bits(p) == float_to_bits(r)
    return p == r


def verify(dyn: DynInst, p: Optional[Comparable] = None) -> bool:
    """Convenience: re-execute and compare against ``p`` (default: clean P)."""
    if p is None:
        p = p_value(dyn)
    return values_equal(p, reexecute(dyn))


def describe_mismatch(p: Comparable, r: Comparable) -> str:
    """Human-readable P/R disagreement (invariant-checker diagnostics).

    Integers additionally show the XOR of their 32-bit patterns and
    floats the XOR of their IEEE-754 bit patterns, so a single-bit
    soft-error corruption is recognisable at a glance.
    """
    base = f"P={p!r} vs R={r!r}"
    if isinstance(p, int) and isinstance(r, int):
        return f"{base} (xor=0x{(p ^ r) & 0xFFFFFFFFFFFFFFFF:x})"
    if isinstance(p, float) and isinstance(r, float):
        return f"{base} (bits xor=0x{float_to_bits(p) ^ float_to_bits(r):x})"
    return base
