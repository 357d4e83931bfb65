"""Pipeline corner cases: RAS depth, indirect jumps, structural edges."""

import pytest

from repro.arch import emulate
from repro.isa import assemble
from repro.uarch import Pipeline, starting_config
from repro.workloads import kernels


def run(program, config, max_instructions=500_000, **kwargs):
    result = emulate(program, max_instructions=max_instructions)
    stats = Pipeline(program, result.trace, config, **kwargs).run()
    assert stats.committed == len(result.trace)
    return stats


class TestDeepRecursion:
    def test_quicksort_through_pipeline(self, cfg):
        program, _ = kernels.quicksort(40, seed=2)
        stats = run(program, cfg)
        assert stats.halted

    def test_ras_overflow_still_correct(self):
        # Recursion deeper than the RAS: returns mispredict but commit
        # correctness is unaffected.
        shallow_ras = starting_config().replace(ras_depth=2)
        program, _ = kernels.fib_recursive(10)
        deep = run(program, shallow_ras)
        normal = run(program, starting_config())
        assert deep.committed == normal.committed
        assert deep.mispredictions >= normal.mispredictions

    def test_reese_through_deep_recursion(self, cfg):
        program, _ = kernels.quicksort(32, seed=6)
        stats = run(program, cfg.with_reese())
        assert stats.halted


class TestIndirectJumps:
    def test_jalr_indirect_call_predicted_by_btb(self, cfg):
        # A repeated indirect call through a function pointer: the BTB
        # learns the target after the first trip.
        program = assemble("""
        .data
        fptr: .space 4
        .text
        main:
            la   r1, fn
            la   r2, fptr
            sw   r1, 0(r2)
            li   r3, 60
        loop:
            lw   r4, 0(r2)
            jalr r31, r4
            subi r3, r3, 1
            bnez r3, loop
            halt
        fn:
            addi r5, r5, 1
            ret
        """)
        stats = run(program, cfg)
        # After warm-up, indirect targets come from the BTB: the
        # misprediction count stays far below the call count.
        assert stats.mispredictions < 30

    def test_jr_through_table(self, cfg):
        # Computed goto via jump table: jr to data-loaded addresses.
        program = assemble("""
        .data
        table: .space 8
        .text
        main:
            la   r1, table
            la   r2, case0
            sw   r2, 0(r1)
            la   r3, case1
            sw   r3, 4(r1)
            li   r4, 40
            li   r9, 0
        loop:
            andi r5, r4, 1
            slli r5, r5, 2
            add  r6, r1, r5
            lw   r7, 0(r6)
            jr   r7
        case0:
            addi r9, r9, 1
            j    merge
        case1:
            addi r9, r9, 2
        merge:
            subi r4, r4, 1
            bnez r4, loop
            putint r9
            halt
        """)
        stats = run(program, cfg)
        assert stats.halted


class TestStructuralEdges:
    def test_tiny_fetch_queue(self, cfg):
        program, _ = kernels.vector_sum(64)
        stats = run(program, cfg.replace(fetch_queue_size=2))
        assert stats.halted

    def test_single_wide_machine(self):
        narrow = starting_config().replace(
            fetch_width=1, decode_width=1, issue_width=1, commit_width=1,
            ruu_size=4, lsq_size=2,
        )
        program, _ = kernels.fibonacci(100)
        stats = run(program, narrow)
        assert stats.ipc <= 1.0

    def test_tlb_disabled_machine(self, cfg):
        from repro.memhier import MemHierParams
        no_tlb = cfg.replace(mem=MemHierParams(use_tlb=False))
        program, _ = kernels.vector_sum(64)
        stats = run(program, no_tlb)
        assert "dtlb" not in stats.cache_stats

    @pytest.mark.parametrize("kind", ["bimodal", "combining", "taken",
                                      "nottaken", "perfect"])
    def test_all_predictors_through_pipeline(self, cfg, kind):
        program, _ = kernels.bubble_sort(12, seed=2)
        stats = run(program, cfg.replace(predictor=kind))
        assert stats.halted

    def test_zero_int_mult_machine_rejects_mul_gracefully(self):
        # A machine with no multiplier cannot execute mul: the FU pool
        # has no unit, so issue never grants and the run deadlocks —
        # the deadlock guard must catch it rather than hang.
        from repro.uarch.pipeline import SimulationDeadlockError
        config = starting_config().replace(int_mult=0)
        program = kernels.multiply_bound(5)
        result = emulate(program)
        pipeline = Pipeline(program, result.trace, config)
        pipeline.DEADLOCK_WINDOW = 500  # keep the test fast
        with pytest.raises(SimulationDeadlockError):
            pipeline.run()

    def test_reese_tiny_rqueue_progresses(self, cfg):
        program, _ = kernels.vector_sum(64)
        stats = run(
            program,
            cfg.with_reese(rqueue_size=2, high_water_margin=1),
        )
        assert stats.halted


class TestMeasurementWindow:
    STORE_THEN_HALT = """
    .data
    buf: .word 0
    .text
    main:
        la   r2, buf
        li   r1, 5
        sw   r1, 0(r2)
        halt
    """

    @pytest.mark.parametrize("machine", ["baseline", "reese", "dispatch_dup"])
    def test_window_opening_at_a_store_counts_its_write(self, machine):
        """The store that opens the window is measured: its memory port
        and its D-cache write, on every commit path."""
        base = starting_config()
        config = {"baseline": base, "reese": base.with_reese(),
                  "dispatch_dup": base.with_dispatch_dup()}[machine]
        program = assemble(self.STORE_THEN_HALT)
        trace = emulate(program).trace
        (store,) = [seq for seq, dyn in enumerate(trace)
                    if dyn.static.is_store]
        stats = Pipeline(program, trace, config, measure_from=store).run()
        assert stats.committed == 2  # the store and the halt
        assert stats.fu_issues["mem"] >= 1
        assert stats.cache_stats["l1d"]["accesses"] == 1
