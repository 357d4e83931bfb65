"""Unit tests for the functional emulator (the architectural oracle)."""

import gc

import pytest

from repro.arch import EmulatorError, emulate
from repro.isa import INST_SIZE, TEXT_BASE, assemble
from repro.isa.instructions import Op
from repro.isa.program import STACK_BASE
from repro.isa.registers import REG_SP
from repro.workloads import kernels


class TestKernelCorrectness:
    """Kernels with pure-Python references must match exactly."""

    def test_vector_sum(self):
        program, expected = kernels.vector_sum(n=40, seed=9)
        assert emulate(program).output == [expected]

    def test_fibonacci(self):
        program, expected = kernels.fibonacci(30)
        assert emulate(program).output == [expected]

    def test_fibonacci_wraps_32_bits(self):
        program, expected = kernels.fibonacci(60)
        result = emulate(program)
        assert result.output == [expected]
        assert -(2**31) <= result.output[0] < 2**31

    def test_recursive_fibonacci(self):
        program, expected = kernels.fib_recursive(10)
        assert emulate(program).output == [expected]

    def test_bubble_sort_sorts_memory(self):
        program, expected = kernels.bubble_sort(n=20, seed=4)
        result = emulate(program)
        assert result.output == [expected[0]]
        # Verify the whole array in memory is sorted.
        from repro.isa.program import DATA_BASE
        values = [result.memory.load_word(DATA_BASE + 4 * i) for i in range(20)]
        assert values == expected

    def test_matmul_trace(self):
        program, expected = kernels.matmul(n=5, seed=2)
        assert emulate(program).output == [expected]

    def test_string_hash(self):
        program, expected = kernels.string_hash("hello world")
        assert emulate(program).output == [expected]


class TestExecutionControl:
    def test_halt_stops_execution(self):
        result = emulate(assemble("halt\nnop"))
        assert result.halted
        assert result.instructions == 1

    def test_instruction_cap(self):
        program = assemble("x: j x")
        result = emulate(program, max_instructions=50)
        assert not result.halted
        assert result.instructions == 50

    def test_jump_outside_text_raises(self):
        program = assemble("li r1, 4\njr r1")  # address 4 < TEXT_BASE
        with pytest.raises(EmulatorError):
            emulate(program)

    def test_sp_initialised(self):
        result = emulate(assemble("halt"))
        # sp was never written by the 1-instruction program.
        assert result.regs[REG_SP] == STACK_BASE

    def test_r0_stays_zero(self):
        result = emulate(assemble("addi r0, r0, 99\nputint r0\nhalt"))
        assert result.output == [0]

    def test_putch_masks_to_byte(self):
        result = emulate(assemble("li r1, 321\nputch r1\nhalt"))
        assert result.output == [321 & 0xFF]


class TestTraceContents:
    def test_trace_length_matches_instruction_count(self, loop_program):
        result = emulate(loop_program)
        assert len(result.trace) == result.instructions

    def test_trace_sequential_seq_numbers(self, loop_program):
        # A record's sequence number is its trace position: records carry
        # no number of their own, and each position holds its own record.
        trace = emulate(loop_program).trace
        assert not hasattr(trace[0], "seq")
        assert len({id(dyn) for dyn in trace}) == len(trace)

    def test_next_index_chains_the_trace(self, mixed_program):
        trace = emulate(mixed_program).trace
        for current, following in zip(trace, trace[1:]):
            assert current.next_index == following.static.static_index

    def test_branch_records_outcome_and_target(self):
        program = assemble("""
        main:
            li r1, 1
            beqz r1, skip     # not taken
            bnez r1, skip     # taken
            nop
        skip:
            halt
        """)
        trace = emulate(program).trace
        branches = [d for d in trace if d.static.is_cond_branch]
        assert [d.taken for d in branches] == [False, True]
        assert branches[0].target_index == program.label("skip")

    def test_load_records_effective_address_and_value(self):
        program = assemble("""
        .data
        v: .word 77
        .text
        la r1, v
        lw r2, 0(r1)
        halt
        """)
        trace = emulate(program).trace
        load = next(d for d in trace if d.static.is_load)
        assert load.result == 77
        from repro.isa.program import DATA_BASE
        assert load.ea == DATA_BASE

    def test_store_records_value(self):
        program = assemble("""
        .data
        v: .space 4
        .text
        la r1, v
        li r2, -9
        sw r2, 0(r1)
        halt
        """)
        trace = emulate(program).trace
        store = next(d for d in trace if d.static.is_store)
        assert store.store_value == -9

    def test_operand_values_captured(self):
        program = assemble("""
        li r1, 6
        li r2, 7
        mul r3, r1, r2
        halt
        """)
        trace = emulate(program).trace
        mul = next(d for d in trace if d.static.op is Op.MUL)
        assert (mul.a, mul.b, mul.result) == (6, 7, 42)

    def test_jal_records_link_value(self):
        program = assemble("""
        main:
            call fn
            halt
        fn:
            ret
        """)
        trace = emulate(program).trace
        jal = next(d for d in trace if d.static.op is Op.JAL)
        assert jal.result == TEXT_BASE + 1 * INST_SIZE

    def test_trace_disabled(self, loop_program):
        result = emulate(loop_program, collect_trace=False)
        assert result.trace is None
        assert result.output == [5050]


class TestCollectorPause:
    """No collector pause: a traced run packs its trace into columns and
    builds no tracked object per instruction, so it leaves the cyclic
    collector as the caller set it, throughout."""

    @pytest.fixture
    def collector(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_restored(self, collector, loop_program, enabled):
        (gc.enable if enabled else gc.disable)()
        seen = []
        result = emulate(loop_program,
                         inject=lambda dyn: seen.append(gc.isenabled()))
        assert result.output == [5050] and result.trace
        assert seen and all(state is enabled for state in seen)
        assert gc.isenabled() is enabled

    def test_state_restored_when_the_run_raises(self, collector):
        gc.enable()
        with pytest.raises(EmulatorError):
            emulate(assemble("li r1, 4\njr r1"))
        assert gc.isenabled()

    def test_traceless_run_leaves_the_collector_on(self, collector,
                                                   loop_program):
        gc.enable()
        seen = []
        emulate(loop_program, collect_trace=False,
                inject=lambda dyn: seen.append(gc.isenabled()))
        assert seen and all(seen)


class TestInjectionHook:
    def test_hook_can_corrupt_register_result(self):
        program = assemble("""
        li r1, 5
        addi r2, r1, 1
        putint r2
        halt
        """)
        def flip(dyn):
            if dyn.static.op is Op.ADDI and dyn.result == 6:
                dyn.result = 999

        result = emulate(program, inject=flip)
        assert result.output == [999]

    def test_hook_can_flip_branch_direction(self):
        program = assemble("""
        main:
            li r1, 1
            bnez r1, taken
            putint r0
            halt
        taken:
            li r2, 42
            putint r2
            halt
        """)
        def flip(dyn):
            if dyn.static.is_cond_branch:
                dyn.taken = not dyn.taken

        clean = emulate(program)
        corrupted = emulate(program, inject=flip)
        assert clean.output == [42]
        assert corrupted.output == [0]

    def test_hook_corruption_propagates(self):
        # A corrupted value feeds later instructions: the hallmark of SDC.
        program = assemble("""
        li r1, 10
        addi r2, r1, 0
        mul r3, r2, r2
        putint r3
        halt
        """)
        def flip(dyn):
            if dyn.static.op is Op.ADDI:
                dyn.result = 11

        assert emulate(program, inject=flip).output == [121]

    def test_hook_can_corrupt_store_value(self):
        program = assemble("""
        .data
        v: .space 4
        .text
        la r1, v
        li r2, 5
        sw r2, 0(r1)
        lw r3, 0(r1)
        putint r3
        halt
        """)
        def flip(dyn):
            if dyn.static.is_store:
                dyn.store_value = 123

        assert emulate(program, inject=flip).output == [123]


class TestDecode:
    """Compute and branch semantics are bound once per static instruction."""

    SOURCE = """
        li   r1, 3
        li   r2, 4
        beq  r1, r2, skip
        mul  r3, r1, r2
    skip:
        putint r3
        halt
    """

    def test_semantic_functions_bound_at_decode(self):
        from repro.arch.emulator import _decode_program
        from repro.isa import semantics

        program = assemble(self.SOURCE)
        bound = {inst.op: fn for (_cat, inst, fn, _record)
                 in _decode_program(program)}
        assert bound[Op.MUL] is semantics._COMPUTE[Op.MUL]
        assert bound[Op.BEQ] is semantics._BRANCH_TAKEN[Op.BEQ]
        assert bound[Op.PUTINT] is None and bound[Op.HALT] is None

    def test_trace_facts_bound_at_decode(self):
        from repro.arch.emulator import _decode_program
        from repro.arch.trace import (DynCompute, DynInst, DynLoad,
                                      DynStore, static_records)
        from tests.arch.test_trace_layout import record_class

        program = assemble("""
        .data
        v: .word 5
        .text
            la   r1, v
            lw   r2, 0(r1)
            sw   r2, 0(r1)
            nop
            beq  r1, r2, done
            j    done
        done:
            putint r2
            halt
        """)
        # What each kind's record holds when its constructor is given
        # the column values (a, b, value, addr) = (1, 2, 1, 6): the
        # kind's own values, and what its static instruction fixes.
        taken = {"next_index": 6, "taken": True, "target_index": 6}
        expected = {
            DynCompute: {"result": 1},
            DynLoad: {"result": 1, "ea": 6},
            DynStore: {"store_value": 1, "ea": 6},
            Op.BEQ: dict(taken, result=1),
            Op.J: dict(taken, result=None),
            Op.HALT: {"next_index": 7, "result": None, "taken": False,
                      "target_index": -1},
            DynInst: {},
        }
        seen = set()
        for idx, (_cat, inst, _fn, record) in enumerate(
                _decode_program(program)):
            static = static_records(program)[idx]
            cls = record_class(static)
            values = expected.get(cls, expected.get(inst.op))
            seen.add(cls if cls in expected else inst.op)
            dyn = record(1, 2, 1, 6)
            assert type(dyn) is cls
            assert dyn.static is static
            assert (static.static_index, static.pc, static.op) == (
                idx, TEXT_BASE + idx * INST_SIZE, inst.op)
            assert (static.dst, static.srcs, static.imm) == (
                inst.dst(), inst.srcs(), inst.imm)
            assert (dyn.a, dyn.b) == (1, 2)
            assert {name: getattr(dyn, name) for name in values} == values
            assert record(0, 0, 0, 0).static is static
        assert seen == set(expected)

    def test_op_without_semantics_raises_when_it_runs(self, monkeypatch):
        from repro.isa import semantics

        monkeypatch.delitem(semantics._COMPUTE, Op.MUL)
        skipped = assemble(self.SOURCE.replace("li   r2, 4", "li   r2, 3"))
        assert emulate(skipped).output == [0]  # decoded, never run
        with pytest.raises(KeyError):
            emulate(assemble(self.SOURCE))

    def test_branch_without_semantics_raises_when_it_runs(self, monkeypatch):
        from repro.isa import semantics

        monkeypatch.delitem(semantics._BRANCH_TAKEN, Op.BEQ)
        program = assemble(self.SOURCE.replace("li   r1, 3", "j    skip"))
        assert emulate(program).output == [0]
        with pytest.raises(KeyError):
            emulate(assemble(self.SOURCE))


class TestInjectionSchedule:
    """A schedule calls the hook at the named eligible ordinals only."""

    SOURCE = """
    main:
        li   r1, 3
        nop
    loop:
        addi r1, r1, -1
        nop
        bnez r1, loop
        putint r1
        halt
    """

    @staticmethod
    def _seen(program, schedule, **kwargs):
        # Each execution of this program has its own (instruction, a).
        seen = []
        result = emulate(
            program, inject=lambda dyn: seen.append(
                (dyn.static.static_index, dyn.a)),
            schedule=schedule, **kwargs)
        return result, seen

    def test_ordinals_skip_nop_and_halt(self):
        program = assemble(self.SOURCE)
        _result, every = self._seen(program, None)
        # 8 eligible instructions; the two nops and halt are not offered.
        assert len(every) == 8
        for ordinals in ([0], [1, 3, 5], [7], list(range(8))):
            _result, seen = self._seen(program, ordinals)
            assert seen == [every[k] for k in ordinals]

    def test_ordinal_past_the_halt_is_never_reached(self):
        program = assemble(self.SOURCE)
        result, seen = self._seen(program, [2, 8, 50])
        assert result.halted and result.output == [0]
        assert len(seen) == 1

    def test_empty_schedule_runs_hookless(self):
        program = assemble(self.SOURCE)
        result, seen = self._seen(program, [])
        assert seen == []
        assert result.output == emulate(program).output

    def test_schedule_is_read_lazily(self):
        program = assemble(self.SOURCE)
        events = []

        def schedule():
            for ordinal in (1, 4):
                events.append(("due", ordinal))
                yield ordinal

        emulate(program, inject=lambda dyn: events.append(("hook", dyn.a)),
                schedule=schedule())
        assert [kind for kind, _ in events] == ["due", "hook", "due", "hook"]

    def test_scheduled_corruption_matches_a_filtering_hook(self):
        program, _ = kernels.bubble_sort(n=12, seed=4)
        targets = {5, 40, 41, 300}

        def flip(dyn):
            if dyn.result is not None and not dyn.static.is_cond_branch:
                dyn.result = dyn.result ^ 1

        count = [0]

        def filtering(dyn):
            if count[0] in targets:
                flip(dyn)
            count[0] += 1

        reference = emulate(program, inject=filtering)
        scheduled = emulate(program, inject=flip, schedule=sorted(targets))
        assert scheduled.output == reference.output
        assert scheduled.memory.snapshot() == reference.memory.snapshot()
        assert scheduled.instructions == reference.instructions

    def test_instruction_cap_applies(self):
        program = assemble("x: addi r1, r1, 1\n j x")
        result, seen = self._seen(program, [3, 1000], max_instructions=50)
        assert not result.halted and result.instructions == 50
        assert len(seen) == 1

    def test_trace_still_collected_in_full(self, loop_program):
        full = emulate(loop_program)
        result, seen = self._seen(loop_program, [2])
        assert result.trace is not None
        assert len(result.trace) == len(full.trace)
        assert len(seen) == 1

    def test_schedule_must_ascend(self):
        program = assemble(self.SOURCE)
        with pytest.raises(ValueError):
            self._seen(program, [3, 3])
        with pytest.raises(ValueError):
            self._seen(program, [4, 1])

    def test_schedule_needs_a_hook(self):
        program = assemble(self.SOURCE)
        with pytest.raises(ValueError):
            emulate(program, schedule=[0])


class TestRecursiveKernels:
    def test_quicksort_sorts(self):
        from repro.isa.program import DATA_BASE
        program, expected = kernels.quicksort(40, seed=3)
        result = emulate(program, max_instructions=500_000)
        values = [result.memory.load_word(DATA_BASE + 4 * i)
                  for i in range(40)]
        assert values == expected
        assert result.output == [expected[0], expected[-1]]

    def test_quicksort_handles_duplicates(self):
        from repro.isa.program import DATA_BASE
        import random
        # Force duplicates by sorting a tiny value range.
        program, expected = kernels.quicksort(32, seed=8)
        result = emulate(program, max_instructions=500_000)
        assert result.halted

    def test_binary_search_hit_count(self):
        program, expected = kernels.binary_search(64, 40, seed=5)
        assert emulate(program, max_instructions=200_000).output == [expected]

    def test_binary_search_all_hits(self):
        program, expected = kernels.binary_search(16, 10, seed=1)
        result = emulate(program)
        assert 0 <= result.output[0] <= 10
