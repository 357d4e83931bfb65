"""Floating-point path: emulator, pipeline FP units, REESE verification.

The paper's Table 1 includes FP functional units ("Same for FP") even
though its experiments are integer-only; these tests keep the FP path
honest end-to-end.
"""

import struct

import pytest

from repro.arch import emulate
from repro.isa import DATA_BASE, assemble
from repro.isa.instructions import FUClass
from repro.uarch import Pipeline, starting_config
from repro.workloads import kernels


def f32(value: float) -> float:
    return struct.unpack("<f", struct.pack("<f", value))[0]


class TestSaxpyKernel:
    @pytest.fixture(scope="class")
    def run(self):
        program, expected = kernels.saxpy(n=24, a=1.75, seed=4)
        result = emulate(program)
        return program, expected, result

    def test_architectural_results_match_reference(self, run):
        program, expected, result = run
        y_base = DATA_BASE + 4 * 24  # yv follows xv
        values = [result.memory.load_float(y_base + 4 * i) for i in range(24)]
        assert values == expected

    def test_fp_ops_execute_on_fp_units(self, run):
        _, _, result = run
        fp_ops = [d for d in result.trace
                  if d.static.fu in (FUClass.FP_ADD, FUClass.FP_MULT)]
        assert len(fp_ops) >= 2 * 24

    def test_pipeline_commits_fp_trace(self, run):
        program, _, result = run
        stats = Pipeline(program, result.trace, starting_config()).run()
        assert stats.committed == len(result.trace)
        assert stats.fu_issues["fpadd"] > 0
        assert stats.fu_issues["fpmultdiv"] > 0

    def test_reese_verifies_fp_results(self, run):
        program, _, result = run
        config = starting_config().with_reese()
        stats = Pipeline(program, result.trace, config).run()
        assert stats.committed == len(result.trace)
        assert stats.errors_detected == 0  # fault-free FP compares equal

    def test_fp_fault_detected_bitwise(self, run):
        """A single-bit flip in an FP result must not escape."""
        from repro.reese import corrupt_value, p_value, reexecute, values_equal
        _, _, result = run
        from repro.isa.instructions import Op
        fmul = next(d for d in result.trace if d.static.op is Op.FMUL)
        for bit in (0, 23, 52, 63):
            corrupted = corrupt_value(p_value(fmul), bit)
            assert not values_equal(corrupted, reexecute(fmul))


class TestFpUnitContention:
    def test_fp_div_blocks_shared_unit_in_pipeline(self):
        source = """
        .data
        v: .word 1073741824   # 2.0f
        .text
        main:
            la   r1, v
            lwf  f1, 0(r1)
            li   r2, 40
        loop:
            fdiv f2, f1, f1
            fmul f3, f1, f1
            subi r2, r2, 1
            bnez r2, loop
            halt
        """
        program = assemble(source)
        result = emulate(program)
        stats = Pipeline(program, result.trace, starting_config()).run()
        # One shared FP mult/div unit; each unpipelined fdiv occupies it
        # for 12 cycles: the loop cannot beat ~12 cycles/iteration.
        assert stats.cycles >= 40 * 12

    def test_spare_fp_units_help(self):
        source = """
        .data
        v: .word 1073741824
        .text
        main:
            la   r1, v
            lwf  f1, 0(r1)
            li   r2, 60
        loop:
            fmul f2, f1, f1
            fmul f3, f1, f1
            fadd f4, f2, f3
            subi r2, r2, 1
            bnez r2, loop
            halt
        """
        program = assemble(source)
        result = emulate(program)
        base_cfg = starting_config()
        more_fp = base_cfg.replace(fp_mult=2)
        base = Pipeline(program, result.trace, base_cfg).run()
        spared = Pipeline(program, result.trace, more_fp).run()
        assert spared.cycles <= base.cycles
