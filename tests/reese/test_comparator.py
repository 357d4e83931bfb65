"""Unit tests for P/R result comparison and re-execution."""

import math

from repro.arch import emulate
from repro.isa import INST_SIZE, TEXT_BASE, assemble
from repro.isa.instructions import FUClass, Op
from repro.arch.trace import StaticInst
from repro.reese import corrupt_value, p_value, reexecute, values_equal, verify
from tests.arch.test_trace_layout import record_class


def dyn_for(op, a=0, b=0, imm=0, **fields):
    """A record of ``op``, of its kind's class; ``fields`` names static
    facts and the values the kind carries."""
    facts = {key: fields.pop(key) for key in list(fields)
             if key in StaticInst.__slots__}
    static = StaticInst(op=op, imm=imm, **facts)
    return record_class(static)(static, a, b, **fields)


class TestReexecution:
    def test_alu_recomputes_from_operands(self):
        dyn = dyn_for(Op.ADD, a=3, b=4, result=7)
        assert reexecute(dyn) == 7
        assert verify(dyn)

    def test_corrupted_p_detected(self):
        dyn = dyn_for(Op.ADD, a=3, b=4, result=7)
        corrupted = corrupt_value(p_value(dyn), bit=2)
        assert not values_equal(corrupted, reexecute(dyn))

    def test_store_compares_address_and_data(self):
        dyn = dyn_for(Op.SW, a=0x1000, b=55, imm=8,
                      is_store=True, ea=0x1008, store_value=55)
        assert verify(dyn)
        wrong_ea = dyn_for(Op.SW, a=0x1000, b=55, imm=8,
                           is_store=True, ea=0x1004, store_value=55)
        assert not verify(wrong_ea)

    def test_load_uses_trace_value(self):
        dyn = dyn_for(Op.LW, a=0x1000, imm=0, result=99,
                      is_load=True, ea=0x1000)
        assert reexecute(dyn) == 99

    def test_branch_direction_recomputed(self):
        dyn = dyn_for(Op.BLT, a=-1, b=0, is_cond_branch=True,
                      is_branch=True, taken=True)
        dyn.result = 1
        assert verify(dyn)
        flipped = dyn_for(Op.BLT, a=-1, b=0, is_cond_branch=True,
                          is_branch=True, taken=False)
        flipped.result = 0  # corrupted P claims not-taken
        assert not verify(flipped)

    def test_jal_link_value(self):
        dyn = dyn_for(Op.JAL, result=TEXT_BASE + 3 * INST_SIZE,
                      is_branch=True, static_index=2)
        assert verify(dyn)

    def test_jr_target_recomputed(self):
        dyn = dyn_for(Op.JR, a=TEXT_BASE + 5 * INST_SIZE, is_branch=True)
        dyn.target_index = 5
        assert verify(dyn)
        dyn.target_index = 6  # corrupted target
        assert not verify(dyn)

    def test_nothing_to_verify_ops(self):
        for op in (Op.J, Op.NOP, Op.PUTINT):
            dyn = dyn_for(op)
            assert p_value(dyn) is None
            assert reexecute(dyn) is None
            assert verify(dyn)


class TestValuesEqual:
    def test_int_equality(self):
        assert values_equal(5, 5)
        assert not values_equal(5, 6)

    def test_float_bitwise(self):
        assert values_equal(1.5, 1.5)
        assert not values_equal(0.0, -0.0)  # distinct bit patterns
        assert values_equal(math.nan, math.nan)  # same NaN bits compare equal

    def test_int_float_mismatch(self):
        assert not values_equal(1, 1.0)

    def test_tuples(self):
        assert values_equal((1, 2), (1, 2))
        assert not values_equal((1, 2), (1, 3))
        assert not values_equal((1,), (1, 2))

    def test_none_matches_none(self):
        assert values_equal(None, None)


class TestWholeTraceVerifies:
    def test_every_instruction_of_a_real_program_verifies(self):
        """Fault-free P and R streams agree on every comparable value."""
        program = assemble("""
        .data
        buf: .word 5, -3, 100, 7
        .text
        main:
            la   r1, buf
            li   r2, 4
            li   r3, 0
        loop:
            lw   r4, 0(r1)
            mul  r5, r4, r4
            div  r6, r5, r2
            sw   r6, 0(r1)
            add  r3, r3, r6
            addi r1, r1, 4
            subi r2, r2, 1
            bnez r2, loop
            call leaf
            putint r3
            halt
        leaf:
            slli r7, r3, 1
            ret
        """)
        trace = emulate(program).trace
        for dyn in trace:
            assert verify(dyn), f"P/R mismatch on fault-free {dyn!r}"

    def test_corrupting_any_result_bit_is_detected(self):
        program, = [assemble("""
        li r1, 6
        li r2, 7
        mul r3, r1, r2
        add r4, r3, r1
        halt
        """)]
        trace = emulate(program).trace
        mul = next(d for d in trace if d.static.op is Op.MUL)
        for bit in range(32):
            corrupted = corrupt_value(p_value(mul), bit)
            assert not values_equal(corrupted, reexecute(mul)), f"bit {bit}"
