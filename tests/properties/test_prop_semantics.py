"""Property-based tests for instruction semantics."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.instructions import Op
from repro.isa.semantics import (
    _BRANCH_TAKEN,
    _COMPUTE,
    _div,
    _rem,
    bits_to_float,
    branch_taken,
    compute,
    float_to_bits,
    to_i32,
    to_u32,
)

i32 = st.integers(min_value=-(2**31), max_value=2**31 - 1)
any_int = st.integers(min_value=-(2**40), max_value=2**40)
#: Operands of the reference comparison: ints well outside 32 bits, and
#: the values where wrapping, sign and width change.
_BOUNDARIES = (0, 1, -1, 31, 32, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF, 2**32,
               -(2**31), -(2**31) - 1, -(2**32))
operand = st.one_of(any_int, st.sampled_from(_BOUNDARIES))


def _shamt(value):
    return value & 31


#: The helper-based definitions the single-expression semantics replaced.
#: Each production op must agree with its reference in value and type.
_REFERENCE_COMPUTE = {
    Op.ADD: lambda a, b, i: to_i32(a + b),
    Op.SUB: lambda a, b, i: to_i32(a - b),
    Op.AND: lambda a, b, i: to_i32(to_u32(a) & to_u32(b)),
    Op.OR: lambda a, b, i: to_i32(to_u32(a) | to_u32(b)),
    Op.XOR: lambda a, b, i: to_i32(to_u32(a) ^ to_u32(b)),
    Op.SLL: lambda a, b, i: to_i32(to_u32(a) << _shamt(b)),
    Op.SRL: lambda a, b, i: to_i32(to_u32(a) >> _shamt(b)),
    Op.SRA: lambda a, b, i: to_i32(to_i32(a) >> _shamt(b)),
    Op.SLT: lambda a, b, i: int(to_i32(a) < to_i32(b)),
    Op.SLTU: lambda a, b, i: int(to_u32(a) < to_u32(b)),
    Op.ADDI: lambda a, b, i: to_i32(a + i),
    Op.ANDI: lambda a, b, i: to_i32(to_u32(a) & to_u32(i)),
    Op.ORI: lambda a, b, i: to_i32(to_u32(a) | to_u32(i)),
    Op.XORI: lambda a, b, i: to_i32(to_u32(a) ^ to_u32(i)),
    Op.SLLI: lambda a, b, i: to_i32(to_u32(a) << _shamt(i)),
    Op.SRLI: lambda a, b, i: to_i32(to_u32(a) >> _shamt(i)),
    Op.SRAI: lambda a, b, i: to_i32(to_i32(a) >> _shamt(i)),
    Op.SLTI: lambda a, b, i: int(to_i32(a) < to_i32(i)),
    Op.LUI: lambda a, b, i: to_i32(to_u32(i) << 16),
    Op.MUL: lambda a, b, i: to_i32(to_i32(a) * to_i32(b)),
    Op.MULHU: lambda a, b, i: to_i32((to_u32(a) * to_u32(b)) >> 32),
    Op.DIV: lambda a, b, i: to_i32(_div(to_i32(a), to_i32(b))),
    Op.REM: lambda a, b, i: _rem(to_i32(a), to_i32(b)),
}

_REFERENCE_BRANCH = {
    Op.BEQ: lambda a, b: to_i32(a) == to_i32(b),
    Op.BNE: lambda a, b: to_i32(a) != to_i32(b),
    Op.BLT: lambda a, b: to_i32(a) < to_i32(b),
    Op.BGE: lambda a, b: to_i32(a) >= to_i32(b),
    Op.BLTZ: lambda a, b: to_i32(a) < 0,
    Op.BGEZ: lambda a, b: to_i32(a) >= 0,
}


def _assert_matches_reference(a, b, imm):
    for op, reference in _REFERENCE_COMPUTE.items():
        expected = reference(a, b, imm)
        actual = _COMPUTE[op](a, b, imm)
        assert (actual, type(actual)) == (expected, type(expected)), \
            (op, a, b, imm)
    for op, reference in _REFERENCE_BRANCH.items():
        expected = reference(a, b)
        actual = _BRANCH_TAKEN[op](a, b)
        assert (actual, type(actual)) == (expected, type(expected)), \
            (op, a, b)


class TestAgainstHelperReference:
    def test_reference_covers_every_integer_op_and_branch(self):
        float_ops = {Op.FADD, Op.FSUB, Op.FMUL, Op.FDIV, Op.FSQRT, Op.FNEG,
                     Op.FCMPLT, Op.CVTIF, Op.CVTFI}
        assert set(_REFERENCE_COMPUTE) == set(_COMPUTE) - float_ops
        assert set(_REFERENCE_BRANCH) == set(_BRANCH_TAKEN)

    @given(operand, operand, operand)
    @settings(max_examples=400)
    def test_matches_reference(self, a, b, imm):
        _assert_matches_reference(a, b, imm)

    def test_every_boundary_triple(self):
        for a in _BOUNDARIES:
            for b in _BOUNDARIES:
                for imm in _BOUNDARIES:
                    _assert_matches_reference(a, b, imm)


class TestWidthProperties:
    @given(any_int)
    def test_to_i32_in_range(self, value):
        result = to_i32(value)
        assert -(2**31) <= result < 2**31

    @given(any_int)
    def test_to_i32_idempotent(self, value):
        assert to_i32(to_i32(value)) == to_i32(value)

    @given(any_int)
    def test_i32_u32_congruent_mod_2_32(self, value):
        assert to_i32(value) % 2**32 == to_u32(value)


class TestAlgebraicProperties:
    @given(i32, i32)
    def test_add_commutes(self, a, b):
        assert compute(Op.ADD, a, b) == compute(Op.ADD, b, a)

    @given(i32, i32)
    def test_add_sub_inverse(self, a, b):
        assert compute(Op.SUB, compute(Op.ADD, a, b), b) == a

    @given(i32)
    def test_xor_self_is_zero(self, a):
        assert compute(Op.XOR, a, a) == 0

    @given(i32, i32)
    def test_mul_commutes(self, a, b):
        assert compute(Op.MUL, a, b) == compute(Op.MUL, b, a)

    @given(i32, i32)
    def test_div_rem_reconstruct(self, a, b):
        q = compute(Op.DIV, a, b)
        r = compute(Op.REM, a, b)
        if b != 0:
            assert to_i32(q * b + r) == a
        else:
            assert (q, r) == (0, a)

    @given(i32, st.integers(min_value=0, max_value=31))
    def test_shift_left_right_bounds(self, a, shamt):
        shifted = compute(Op.SLL, a, shamt)
        assert -(2**31) <= shifted < 2**31

    @given(i32)
    def test_sra_preserves_sign(self, a):
        result = compute(Op.SRA, a, 4)
        assert (result < 0) == (a < 0) or result == 0

    @given(i32, i32)
    def test_results_always_32_bit(self, a, b):
        for op in (Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.MUL,
                   Op.DIV, Op.REM, Op.SLT, Op.SLTU):
            result = compute(op, a, b)
            assert -(2**31) <= result < 2**31


class TestBranchProperties:
    @given(i32, i32)
    def test_beq_bne_complementary(self, a, b):
        assert branch_taken(Op.BEQ, a, b) != branch_taken(Op.BNE, a, b)

    @given(i32, i32)
    def test_blt_bge_complementary(self, a, b):
        assert branch_taken(Op.BLT, a, b) != branch_taken(Op.BGE, a, b)

    @given(i32)
    def test_bltz_matches_blt_zero(self, a):
        assert branch_taken(Op.BLTZ, a, 0) == branch_taken(Op.BLT, a, 0)


class TestFloatBits:
    @given(st.floats(allow_nan=False))
    def test_roundtrip(self, value):
        assert bits_to_float(float_to_bits(value)) == value

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=200)
    def test_bits_roundtrip(self, bits):
        value = bits_to_float(bits)
        # NaN payloads round-trip bit-exactly too.
        assert float_to_bits(value) == bits
