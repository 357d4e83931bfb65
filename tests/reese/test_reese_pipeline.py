"""Integration-grade tests of REESE inside the timing pipeline."""

import pytest

from repro.arch import emulate
from repro.isa import assemble
from repro.reese import (
    BernoulliFaultModel,
    EnvironmentalFaultModel,
    ScheduledFaultModel,
    UnrecoverableFaultError,
)
from repro.uarch import Observability, Pipeline, StageMetrics, starting_config
from repro.workloads import kernels


def run_reese(program, trace=None, config=None, **kwargs):
    if trace is None:
        trace = emulate(program, max_instructions=200_000).trace
    config = config or starting_config().with_reese()
    return Pipeline(program, trace, config, **kwargs).run()


class TestRedundantExecution:
    def test_commits_exactly_the_trace(self, loop_trace):
        program, trace = loop_trace
        stats = run_reese(program, trace)
        assert stats.committed == len(trace)
        assert stats.halted

    def test_every_commit_is_verified_or_skipped(self, mixed_trace):
        program, trace = mixed_trace
        stats = run_reese(program, trace)
        skippable = sum(
            1 for dyn in trace if dyn.fu == 0 or dyn.op.name == "HALT"
        )
        assert stats.comparisons == stats.committed - skippable
        assert stats.issued_r == stats.comparisons

    def test_r_stream_counted_separately_from_ipc(self, loop_trace):
        program, trace = loop_trace
        stats = run_reese(program, trace)
        # IPC counts P commits only; R executions nearly double the work.
        assert stats.issued_r >= stats.committed * 0.9
        assert stats.committed == len(trace)

    def test_reese_never_faster_than_double_work_bound(self, loop_trace):
        program, trace = loop_trace
        base = Pipeline(program, trace, starting_config()).run()
        reese = run_reese(program, trace)
        # Sanity bracket: REESE costs at most 2.5x the baseline cycles.
        assert base.cycles <= reese.cycles * 1.05
        assert reese.cycles <= base.cycles * 2.5

    def test_rqueue_occupancy_tracked(self, mixed_trace):
        program, trace = mixed_trace
        stats = run_reese(
            program, trace, observer=Observability(metrics=StageMetrics())
        )
        occupancy = stats.stage_metrics["occupancy"]["rqueue"]
        assert max(int(occ) for occ in occupancy) >= 1
        assert stats.rqueue_moves == stats.committed

    def test_no_detection_without_faults(self, mixed_trace):
        program, trace = mixed_trace
        stats = run_reese(program, trace)
        assert stats.errors_detected == 0
        assert stats.recoveries == 0
        assert stats.sdc_commits == 0


class TestQueuePressure:
    def test_small_queue_stalls_p_stream(self):
        program = kernels.ilp_block(400, 8)
        trace = emulate(program).trace
        config = starting_config()
        tight = run_reese(program, trace,
                          config.with_reese(rqueue_size=4, high_water_margin=1))
        roomy = run_reese(program, trace, config.with_reese(rqueue_size=64))
        assert tight.cycles > roomy.cycles
        assert tight.rqueue_full_events > 0

    def test_early_remove_frees_window(self):
        # A long-latency op at the RUU head: early removal lets younger
        # completed instructions leave, keeping the window moving.
        program = assemble("""
        main:
            li r1, 60
            li r2, 10000
            li r3, 7
        loop:
            div r4, r2, r3
            addi r5, r5, 1
            addi r6, r6, 1
            addi r7, r7, 1
            subi r1, r1, 1
            bnez r1, loop
            halt
        """)
        trace = emulate(program).trace
        config = starting_config()
        plain = run_reese(program, trace, config.with_reese())
        early = run_reese(program, trace,
                          config.with_reese(early_remove=True))
        assert early.cycles <= plain.cycles

    def test_spare_alus_recover_performance(self):
        program = kernels.ilp_block(500, 8)
        trace = emulate(program).trace
        config = starting_config()
        base = Pipeline(program, trace, config).run()
        reese = run_reese(program, trace, config.with_reese())
        spared = run_reese(program, trace,
                           config.with_spares(alu=2).with_reese())
        assert reese.cycles >= base.cycles
        assert spared.cycles <= reese.cycles


class TestDutyCycle:
    def test_half_duty_skips_half(self, mixed_trace):
        program, trace = mixed_trace
        config = starting_config().with_reese(r_duty_cycle=0.5)
        stats = run_reese(program, trace, config)
        assert stats.committed == len(trace)
        assert stats.r_skipped_duty > 0
        full = run_reese(program, trace)
        assert stats.issued_r < full.issued_r * 0.7

    def test_duty_cycle_reduces_overhead(self):
        program = kernels.ilp_block(400, 8)
        trace = emulate(program).trace
        config = starting_config()
        full = run_reese(program, trace, config.with_reese())
        half = run_reese(program, trace,
                         config.with_reese(r_duty_cycle=0.5))
        assert half.cycles <= full.cycles

    def test_duty_cycle_loses_coverage(self):
        # A fault on a skipped instruction escapes as SDC.
        program = kernels.ilp_block(300, 6)
        trace = emulate(program).trace
        config = starting_config().with_reese(r_duty_cycle=0.25)
        model = BernoulliFaultModel(rate=0.02, seed=5)
        stats = Pipeline(program, trace, config, fault_model=model).run()
        assert stats.sdc_commits > 0


class TestDetectionAndRecovery:
    def test_single_event_detected_and_recovered(self, mixed_trace):
        program, trace = mixed_trace
        # Spray short events until one coincides with a completion.
        model = ScheduledFaultModel([(c, 2, 9) for c in range(50, 500, 50)])
        stats = run_reese(program, trace, fault_model=model)
        assert model.strikes >= 1
        assert stats.errors_detected >= 1
        assert stats.recoveries == stats.errors_detected
        assert stats.committed == len(trace)  # recovered completely

    def test_detection_flushes_pipeline(self, mixed_trace):
        program, trace = mixed_trace
        model = ScheduledFaultModel([(c, 2, 9) for c in range(50, 500, 50)])
        stats = run_reese(program, trace, fault_model=model)
        clean = run_reese(program, trace)
        assert stats.cycles > clean.cycles  # recovery costs time

    def test_long_event_hits_both_streams_and_escapes(self):
        program = kernels.ilp_block(600, 8)
        trace = emulate(program).trace
        model = EnvironmentalFaultModel(rate=5e-4, duration=200, seed=3)
        stats = run_reese(program, trace, fault_model=model)
        # P and R corrupted identically inside one long event: escapes.
        assert stats.errors_undetected_same_event > 0

    def test_short_events_mostly_detected(self):
        program = kernels.ilp_block(600, 8)
        trace = emulate(program).trace
        model = EnvironmentalFaultModel(rate=5e-4, duration=1, seed=3)
        stats = run_reese(program, trace, fault_model=model)
        assert stats.errors_detected > 0
        assert stats.errors_detected >= stats.errors_undetected_same_event

    def test_persistent_disagreement_stops_machine(self, mixed_trace):
        program, trace = mixed_trace
        model = BernoulliFaultModel(rate=1.0, seed=1)
        with pytest.raises(UnrecoverableFaultError):
            run_reese(program, trace, fault_model=model)

    def test_baseline_commits_corruption_silently(self, mixed_trace):
        program, trace = mixed_trace
        model = ScheduledFaultModel([(c, 2, 9) for c in range(50, 500, 50)])
        config = starting_config()  # no REESE
        stats = Pipeline(program, trace, config, fault_model=model).run()
        assert stats.sdc_commits >= 1
        assert stats.errors_detected == 0


class TestStoreHandling:
    def test_store_memory_written_once_after_verification(self):
        program = assemble("""
        .data
        out: .space 16
        .text
        main:
            la  r1, out
            li  r2, 11
            sw  r2, 0(r1)
            lw  r3, 0(r1)
            putint r3
            halt
        """)
        trace = emulate(program).trace
        stats = run_reese(program, trace)
        assert stats.committed == len(trace)
        # One store: exactly one D-cache write access beyond the loads.
        assert stats.stores == 1

    def test_store_keeps_lsq_entry_until_commit(self):
        # Store-heavy loop with a tiny LSQ: REESE holds store entries
        # until verification, so LSQ pressure rises vs baseline.
        program = assemble("""
        .data
        buf: .space 256
        .text
        main:
            la  r1, buf
            li  r2, 60
        loop:
            sw  r2, 0(r1)
            sw  r2, 4(r1)
            sw  r2, 8(r1)
            subi r2, r2, 1
            bnez r2, loop
            halt
        """)
        trace = emulate(program).trace
        config = starting_config().replace(lsq_size=4)
        base = Pipeline(program, trace, config).run()
        reese = Pipeline(program, trace, config.with_reese()).run()
        assert reese.lsq_full_events >= base.lsq_full_events
