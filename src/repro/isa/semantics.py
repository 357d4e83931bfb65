"""Pure instruction semantics for the repro mini-ISA.

All dynamic behaviour is expressed as side-effect-free functions over
operand values.  This module is the *single* definition of what each
operation computes; it is shared by

* the in-order functional emulator (:mod:`repro.arch.emulator`), which
  produces the P-stream results, and
* REESE's R-stream re-execution (:mod:`repro.reese`), which recomputes
  results from operands captured in the R-stream Queue.

Sharing one implementation guarantees that, absent an injected fault,
the P-stream and R-stream computations of an instruction are identical —
the property the REESE comparator relies on.

Integer arithmetic wraps to 32-bit two's complement.  Division by zero
is architecturally defined to produce 0 (quotient) / the dividend
(remainder), so programs never trap.  Floating-point values are Python
floats (IEEE-754 doubles); fault injection manipulates their bit
patterns via :func:`float_to_bits` / :func:`bits_to_float`.
"""

from __future__ import annotations

import math
import struct
from typing import Callable, Dict, Union

from .instructions import Op

Value = Union[int, float]

_MASK32 = 0xFFFFFFFF


def to_u32(value: int) -> int:
    """Truncate an int to its unsigned 32-bit representation."""
    return value & _MASK32


def to_i32(value: int) -> int:
    """Truncate an int to signed 32-bit two's complement."""
    value &= _MASK32
    return value - 0x100000000 if value & 0x80000000 else value


def float_to_bits(value: float) -> int:
    """IEEE-754 double bit pattern of ``value`` as an unsigned 64-bit int."""
    return struct.unpack("<Q", struct.pack("<d", value))[0]


def bits_to_float(bits: int) -> float:
    """Inverse of :func:`float_to_bits`."""
    return struct.unpack("<d", struct.pack("<Q", bits & (2**64 - 1)))[0]


def _div(a: int, b: int) -> int:
    if b == 0:
        return 0
    # C-style truncating division.
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _rem(a: int, b: int) -> int:
    if b == 0:
        return to_i32(a)
    return to_i32(a - _div(a, b) * b)


# ---------------------------------------------------------------------------
# ALU / FP computation.  Each entry maps (a, b, imm) -> result, where a and b
# are the values of rs1 and rs2 (0 / 0.0 when the slot is unused).
#
# Each integer op is one expression with no helper call: the emulator's
# interpreter, its translated blocks and REESE's R recomputation all call
# these per instruction.  ``((x + 0x80000000) & 0xFFFFFFFF) - 0x80000000``
# is ``to_i32(x)`` inline.  It reads only ``x`` mod 2**32, and the residue
# of ``a & b``, ``a | b``, ``a ^ b``, ``a + b``, ``a - b``, ``a * b`` and
# ``a << s`` depends only on the residues of ``a`` and ``b``, so their
# operands need no mask of their own.  Signed compares drop the final
# ``- 0x80000000`` from both sides.  The helper-based forms are the
# reference in tests/properties/test_prop_semantics.py.
# ---------------------------------------------------------------------------

_COMPUTE: Dict[Op, Callable[[Value, Value, int], Value]] = {
    Op.ADD: lambda a, b, i: ((a + b + 0x80000000) & 0xFFFFFFFF) - 0x80000000,
    Op.SUB: lambda a, b, i: ((a - b + 0x80000000) & 0xFFFFFFFF) - 0x80000000,
    Op.AND: lambda a, b, i:
        (((a & b) + 0x80000000) & 0xFFFFFFFF) - 0x80000000,
    Op.OR: lambda a, b, i:
        (((a | b) + 0x80000000) & 0xFFFFFFFF) - 0x80000000,
    Op.XOR: lambda a, b, i:
        (((a ^ b) + 0x80000000) & 0xFFFFFFFF) - 0x80000000,
    Op.SLL: lambda a, b, i:
        (((a << (b & 31)) + 0x80000000) & 0xFFFFFFFF) - 0x80000000,
    Op.SRL: lambda a, b, i:
        ((((a & 0xFFFFFFFF) >> (b & 31)) + 0x80000000) & 0xFFFFFFFF)
        - 0x80000000,
    Op.SRA: lambda a, b, i:
        (((a + 0x80000000) & 0xFFFFFFFF) - 0x80000000) >> (b & 31),
    Op.SLT: lambda a, b, i:
        int(((a + 0x80000000) & 0xFFFFFFFF) < ((b + 0x80000000) & 0xFFFFFFFF)),
    Op.SLTU: lambda a, b, i: int((a & 0xFFFFFFFF) < (b & 0xFFFFFFFF)),
    Op.ADDI: lambda a, b, i: ((a + i + 0x80000000) & 0xFFFFFFFF) - 0x80000000,
    Op.ANDI: lambda a, b, i:
        (((a & i) + 0x80000000) & 0xFFFFFFFF) - 0x80000000,
    Op.ORI: lambda a, b, i:
        (((a | i) + 0x80000000) & 0xFFFFFFFF) - 0x80000000,
    Op.XORI: lambda a, b, i:
        (((a ^ i) + 0x80000000) & 0xFFFFFFFF) - 0x80000000,
    Op.SLLI: lambda a, b, i:
        (((a << (i & 31)) + 0x80000000) & 0xFFFFFFFF) - 0x80000000,
    Op.SRLI: lambda a, b, i:
        ((((a & 0xFFFFFFFF) >> (i & 31)) + 0x80000000) & 0xFFFFFFFF)
        - 0x80000000,
    Op.SRAI: lambda a, b, i:
        (((a + 0x80000000) & 0xFFFFFFFF) - 0x80000000) >> (i & 31),
    Op.SLTI: lambda a, b, i:
        int(((a + 0x80000000) & 0xFFFFFFFF) < ((i + 0x80000000) & 0xFFFFFFFF)),
    Op.LUI: lambda a, b, i:
        (((i << 16) + 0x80000000) & 0xFFFFFFFF) - 0x80000000,
    Op.MUL: lambda a, b, i: ((a * b + 0x80000000) & 0xFFFFFFFF) - 0x80000000,
    Op.MULHU: lambda a, b, i:
        (((((a & 0xFFFFFFFF) * (b & 0xFFFFFFFF)) >> 32) + 0x80000000)
         & 0xFFFFFFFF) - 0x80000000,
    Op.DIV: lambda a, b, i: to_i32(_div(to_i32(a), to_i32(b))),
    Op.REM: lambda a, b, i: _rem(to_i32(a), to_i32(b)),
    Op.FADD: lambda a, b, i: float(a) + float(b),
    Op.FSUB: lambda a, b, i: float(a) - float(b),
    Op.FMUL: lambda a, b, i: float(a) * float(b),
    Op.FDIV: lambda a, b, i: float(a) / float(b) if b else math.inf,
    Op.FSQRT: lambda a, b, i: math.sqrt(abs(float(a))),
    Op.FNEG: lambda a, b, i: -float(a),
    Op.FCMPLT: lambda a, b, i: int(float(a) < float(b)),
    Op.CVTIF: lambda a, b, i: float(to_i32(a)),
    Op.CVTFI: lambda a, b, i: to_i32(int(float(a))),
}


def compute(op: Op, a: Value = 0, b: Value = 0, imm: int = 0) -> Value:
    """Evaluate a computational (non-memory, non-control) operation.

    Args:
        op: the opcode.
        a: value of ``rs1`` (0 if unused).
        b: value of ``rs2`` (0 if unused).
        imm: the instruction's immediate.

    Returns:
        The architectural result (int for integer ops, float for FP ops).

    Raises:
        KeyError: if ``op`` is not a computational operation.
    """
    return _COMPUTE[op](a, b, imm)


def has_compute(op: Op) -> bool:
    """True if :func:`compute` can evaluate ``op``."""
    return op in _COMPUTE


# ---------------------------------------------------------------------------
# Control flow.
# ---------------------------------------------------------------------------

_BRANCH_TAKEN: Dict[Op, Callable[[int, int], bool]] = {
    Op.BEQ: lambda a, b: ((a - b) & 0xFFFFFFFF) == 0,
    Op.BNE: lambda a, b: ((a - b) & 0xFFFFFFFF) != 0,
    Op.BLT: lambda a, b:
        ((a + 0x80000000) & 0xFFFFFFFF) < ((b + 0x80000000) & 0xFFFFFFFF),
    Op.BGE: lambda a, b:
        ((a + 0x80000000) & 0xFFFFFFFF) >= ((b + 0x80000000) & 0xFFFFFFFF),
    Op.BLTZ: lambda a, b: (a & 0x80000000) != 0,
    Op.BGEZ: lambda a, b: (a & 0x80000000) == 0,
}


def branch_taken(op: Op, a: int = 0, b: int = 0) -> bool:
    """Resolve a conditional branch's direction from its operand values.

    Unconditional control transfers (``j``/``jal``/``jr``/``jalr``) are
    always taken.

    Raises:
        KeyError: if ``op`` is not a control-flow operation.
    """
    if op in (Op.J, Op.JAL, Op.JR, Op.JALR):
        return True
    return _BRANCH_TAKEN[op](a, b)


def effective_address(base: int, imm: int) -> int:
    """Compute a load/store effective address (wraps at 32 bits)."""
    return to_u32(base + imm)
