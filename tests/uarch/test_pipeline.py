"""Unit tests for the baseline out-of-order pipeline."""

import pytest

from repro.arch import emulate
from repro.isa import assemble
from repro.uarch import Pipeline, SimulationTimeoutError, starting_config
from repro.workloads import kernels


def run(program, config=None, **kwargs):
    result = emulate(program, max_instructions=200_000)
    assert result.halted
    pipeline = Pipeline(program, result.trace, config or starting_config(),
                        **kwargs)
    return pipeline.run(), result


class TestCommitCorrectness:
    def test_commits_exactly_the_trace(self, loop_trace, cfg):
        program, trace = loop_trace
        stats = Pipeline(program, trace, cfg).run()
        assert stats.committed == len(trace)
        assert stats.halted

    def test_mixed_program_commits_all(self, mixed_trace, cfg):
        program, trace = mixed_trace
        stats = Pipeline(program, trace, cfg).run()
        assert stats.committed == len(trace)

    def test_empty_trace(self, cfg):
        program = assemble("halt")
        stats = Pipeline(program, [], cfg).run()
        assert stats.cycles == 0 and stats.committed == 0

    def test_trace_without_halt_commits_all(self, cfg):
        program = assemble("x: addi r1, r1, 1\nj x")
        result = emulate(program, max_instructions=100)
        stats = Pipeline(program, result.trace, cfg).run()
        assert stats.committed == 100

    def test_deterministic(self, mixed_trace, cfg):
        program, trace = mixed_trace
        first = Pipeline(program, trace, cfg).run()
        second = Pipeline(program, trace, cfg).run()
        assert first.cycles == second.cycles
        assert first.to_dict() == second.to_dict()


class TestTimingSanity:
    def test_ipc_below_issue_width(self, cfg):
        stats, _ = run(kernels.ilp_block(300, 8))
        assert 0 < stats.ipc <= cfg.issue_width

    def test_serial_chain_is_slow(self):
        serial, _ = run(kernels.serial_chain(500))
        parallel, _ = run(kernels.ilp_block(300, 8))
        assert parallel.ipc > serial.ipc * 1.5

    def test_every_instruction_costs_at_least_a_cycle_share(self, cfg):
        stats, result = run(kernels.fibonacci(200)[0])
        # cycles >= instructions / issue width (loose lower bound).
        assert stats.cycles >= stats.committed / cfg.issue_width

    def test_mult_bound_kernel_limited_by_single_multiplier(self, cfg):
        stats, _ = run(kernels.multiply_bound(400))
        # 3 multiplies per 8-instruction iteration through 1 pipelined
        # multiplier: at most 8/3 IPC.
        assert stats.ipc <= 8 / 3 + 0.05

    def test_spare_multiplier_speeds_mult_bound_kernel(self, cfg):
        program = kernels.multiply_bound(400)
        base, _ = run(program, cfg)
        spared, _ = run(program, cfg.with_spares(mult=1))
        assert spared.ipc > base.ipc * 1.1


class TestBranchHandling:
    def test_mispredictions_counted(self, cfg):
        # Data-dependent branch pattern the predictor cannot learn fully.
        program = assemble("""
        main:
            li   r1, 300
            li   r2, 12345
            li   r5, 1103515245
            li   r9, 0
        loop:
            mul  r2, r2, r5
            addi r2, r2, 12345
            srli r3, r2, 9
            andi r3, r3, 1
            beqz r3, skip
            addi r9, r9, 1
        skip:
            subi r1, r1, 1
            bnez r1, loop
            halt
        """)
        stats, _ = run(program, cfg)
        assert stats.mispredictions > 10
        assert stats.committed > 0

    def test_perfect_predictor_removes_mispredictions(self, cfg):
        program = kernels.bubble_sort(16, seed=1)[0]
        perfect = cfg.replace(predictor="perfect")
        base, _ = run(program, cfg)
        oracle, _ = run(program, perfect)
        assert oracle.mispredictions == 0
        assert oracle.cycles <= base.cycles

    def test_mispredict_penalty_visible(self, cfg):
        # Same instruction count; one version with a predictable branch,
        # one with an unpredictable one.
        def build(expr):
            return assemble(f"""
            main:
                li   r1, 400
                li   r2, 98765
                li   r5, 1103515245
                li   r9, 0
            loop:
                mul  r2, r2, r5
                addi r2, r2, 12345
                srli r3, r2, 9
                {expr}
                beqz r4, skip
                addi r9, r9, 1
            skip:
                subi r1, r1, 1
                bnez r1, loop
                halt
            """)
        predictable, _ = run(build("li r4, 1"), cfg)
        random_branch, _ = run(build("andi r4, r3, 1"), cfg)
        assert random_branch.cycles > predictable.cycles

    def test_call_return_predicted_by_ras(self, cfg):
        program = kernels.fib_recursive(11)[0]
        stats, result = run(program, cfg)
        # Returns are RAS-predicted: total control mispredictions should
        # be a small fraction of the (call-heavy) branch count.
        assert stats.mispredictions < stats.branches * 0.2

    def test_wrong_path_instructions_fetched(self, cfg):
        program = kernels.bubble_sort(16, seed=7)[0]
        stats, _ = run(program, cfg)
        assert stats.mispredictions > 0
        assert stats.fetched_wrong_path > 0
        assert stats.squashed > 0


class TestStructuralLimits:
    def test_bigger_window_helps_ilp(self, cfg):
        program = kernels.ilp_block(300, 10)
        small, _ = run(program, cfg)
        big, _ = run(program, cfg.replace(ruu_size=64, lsq_size=32))
        assert big.ipc >= small.ipc

    def test_narrow_width_limits_ipc(self, cfg):
        program = kernels.ilp_block(300, 8)
        narrow = cfg.replace(
            fetch_width=2, decode_width=2, issue_width=2, commit_width=2
        )
        stats, _ = run(program, narrow)
        assert stats.ipc <= 2.0

    def test_ruu_full_events_on_long_latency(self, cfg):
        program = assemble("""
        main:
            li r1, 50
            li r2, 1000
            li r3, 7
        loop:
            div r4, r2, r3
            subi r1, r1, 1
            bnez r1, loop
            halt
        """)
        stats, _ = run(program, cfg)
        assert stats.ruu_full_events > 0  # divides back the window up

    def test_store_load_forwarding(self, cfg):
        program = assemble("""
        .data
        buf: .space 64
        .text
        main:
            la  r1, buf
            li  r2, 200
        loop:
            sw  r2, 0(r1)
            lw  r3, 0(r1)
            add r4, r3, r2
            subi r2, r2, 1
            bnez r2, loop
            halt
        """)
        stats, _ = run(program, cfg)
        assert stats.load_forwards > 100


class TestCacheInteraction:
    def test_cold_misses_slow_execution(self, cfg):
        program, _ = kernels.vector_sum(256, seed=5)
        result = emulate(program)
        cold = Pipeline(program, result.trace, cfg).run()
        warm = Pipeline(program, result.trace, cfg, warm=True).run()
        assert warm.cycles < cold.cycles
        assert warm.cache_stats["l1d"]["misses"] < \
            cold.cache_stats["l1d"]["misses"]

    def test_warmup_zeroes_cache_stats(self, cfg, loop_trace):
        program, trace = loop_trace
        stats = Pipeline(program, trace, cfg, warm=True).run()
        # The loop touches no data; after warm-up the I-side should hit.
        assert stats.cache_stats["l1i"]["misses"] == 0

    def test_warmup_zeroes_dtlb_stats(self, cfg):
        # Every data access probes the D-TLB and the L1 D-cache once, so
        # after the warm pass is zeroed the two counts must agree.
        program, _ = kernels.bubble_sort(24, seed=4)
        result = emulate(program)
        stats = Pipeline(program, result.trace, cfg, warm=True).run()
        dtlb = stats.cache_stats["dtlb"]
        assert stats.cache_stats["l1d"]["accesses"] > 0
        assert dtlb["hits"] + dtlb["misses"] == \
            stats.cache_stats["l1d"]["accesses"]


class TestDeadlockGuard:
    def test_deadlock_window_configurable(self, cfg, loop_trace):
        # Sanity: a normal program never trips the deadlock detector.
        program, trace = loop_trace
        stats = Pipeline(program, trace, cfg).run()
        assert stats.halted

    def test_max_cycles_cap(self, cfg, loop_trace):
        # A too-small cap is an explicit error, never a silent partial
        # result that figures could be computed over.
        program, trace = loop_trace
        with pytest.raises(SimulationTimeoutError) as excinfo:
            Pipeline(program, trace, cfg).run(max_cycles=5)
        error = excinfo.value
        assert error.cap == 5
        assert error.total == len(trace)
        assert error.committed < error.total
        # The partial Stats ride along for diagnosis.
        assert error.stats.cycles <= 5
        assert not error.stats.halted
        assert "cycle cap 5 exhausted" in str(error)
