"""Unit tests for the kernel library (beyond the emulator-oracle checks)."""

import pytest

from repro.arch import emulate
from repro.workloads import kernels


class TestKernelOutputs:
    def test_vector_sum_deterministic_per_seed(self):
        a1, e1 = kernels.vector_sum(32, seed=1)
        a2, e2 = kernels.vector_sum(32, seed=1)
        assert e1 == e2
        assert [str(i) for i in a1.code] == [str(i) for i in a2.code]

    def test_vector_sum_seed_changes_data(self):
        _, e1 = kernels.vector_sum(32, seed=1)
        _, e2 = kernels.vector_sum(32, seed=2)
        assert e1 != e2

    def test_all_kernels_halt(self):
        programs = [
            kernels.vector_sum(16)[0],
            kernels.fibonacci(10)[0],
            kernels.fib_recursive(8)[0],
            kernels.bubble_sort(10)[0],
            kernels.matmul(4)[0],
            kernels.string_hash("abc")[0],
            kernels.serial_chain(50),
            kernels.ilp_block(50, 4),
            kernels.multiply_bound(50),
        ]
        for program in programs:
            result = emulate(program, max_instructions=500_000)
            assert result.halted, f"{program.name} did not halt"

    def test_ilp_block_validates_chains(self):
        with pytest.raises(ValueError):
            kernels.ilp_block(10, chains=0)
        with pytest.raises(ValueError):
            kernels.ilp_block(10, chains=13)

    def test_string_hash_empty_components(self):
        program, expected = kernels.string_hash("a")
        assert emulate(program).output == [expected]


class TestKernelCharacter:
    def test_serial_chain_has_no_memory_ops(self):
        trace = emulate(kernels.serial_chain(100)).trace
        assert not any(d.static.is_load or d.static.is_store for d in trace)

    def test_multiply_bound_is_mult_heavy(self):
        from repro.isa.instructions import FUClass
        trace = emulate(kernels.multiply_bound(100)).trace
        mults = sum(1 for d in trace if d.static.fu == FUClass.INT_MULT)
        assert mults / len(trace) > 0.3

    def test_fib_recursive_uses_stack(self):
        trace = emulate(kernels.fib_recursive(8)[0]).trace
        assert any(d.static.is_store for d in trace)
        assert any(d.static.op.name == "JAL" for d in trace)
        assert any(d.static.op.name == "JR" for d in trace)
