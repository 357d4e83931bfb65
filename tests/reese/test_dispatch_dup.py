"""Tests for the dispatch-duplication comparison scheme (related work §3).

Franklin-style duplication at the dynamic scheduler: both copies occupy
RUU/LSQ entries and issue slots, with comparison at commit.  It detects
the same faults as REESE but pays for the halved effective window —
the quantitative argument for REESE's post-completion R-stream Queue.
"""

import pytest

from repro.arch import emulate
from repro.reese import (
    BernoulliFaultModel,
    ScheduledFaultModel,
    UnrecoverableFaultError,
)
from repro.uarch import Pipeline, starting_config
from repro.workloads import kernels
from repro.workloads.suite import trace_for


@pytest.fixture
def dup_config():
    return starting_config().with_dispatch_dup()


class TestConfig:
    def test_with_dispatch_dup(self):
        config = starting_config().with_dispatch_dup()
        assert config.dispatch_dup
        assert not config.reese.enabled
        assert config.name.endswith("+dup")

    def test_mutually_exclusive_with_reese(self):
        with pytest.raises(ValueError):
            starting_config().with_reese().replace(dispatch_dup=True)

    def test_needs_window_of_two(self):
        with pytest.raises(ValueError):
            starting_config().replace(
                ruu_size=1, lsq_size=1, dispatch_dup=True
            )

    def test_without_reese_clears_dup(self):
        config = starting_config().with_dispatch_dup().without_reese()
        assert not config.dispatch_dup


class TestExecution:
    def test_commits_exactly_the_trace(self, loop_trace, dup_config):
        program, trace = loop_trace
        stats = Pipeline(program, trace, dup_config).run()
        assert stats.committed == len(trace)
        assert stats.halted

    def test_mixed_program_commits(self, mixed_trace, dup_config):
        program, trace = mixed_trace
        stats = Pipeline(program, trace, dup_config).run()
        assert stats.committed == len(trace)

    def test_every_commit_compared(self, mixed_trace, dup_config):
        program, trace = mixed_trace
        stats = Pipeline(program, trace, dup_config).run()
        from repro.isa.instructions import FUClass, Op
        trivial = sum(
            1 for dyn in trace
            if dyn.static.fu == FUClass.NONE or dyn.static.op is Op.HALT
        )
        assert stats.comparisons == len(trace) - trivial
        assert stats.issued_r == stats.comparisons

    def test_duplication_roughly_doubles_dispatch(self, loop_trace,
                                                  dup_config):
        program, trace = loop_trace
        base = Pipeline(program, trace, starting_config()).run()
        dup = Pipeline(program, trace, dup_config).run()
        assert dup.dispatched >= base.dispatched * 1.7

    def test_benchmarks_commit_under_dup(self, dup_config):
        for name in ("gcc", "li", "vortex"):
            program, trace = trace_for(name, scale=2500)
            stats = Pipeline(program, trace, dup_config).run()
            assert stats.committed == len(trace), name


class TestCostComparison:
    """The point of the scheme: it is strictly costlier than REESE."""

    def test_dup_slower_than_reese_on_window_limited_code(self):
        program = kernels.ilp_block(400, 8)
        trace = emulate(program).trace
        config = starting_config()
        reese = Pipeline(program, trace, config.with_reese()).run()
        dup = Pipeline(program, trace, config.with_dispatch_dup()).run()
        assert dup.cycles > reese.cycles

    def test_dup_overhead_driven_by_window_pressure(self):
        program = kernels.ilp_block(300, 8)
        trace = emulate(program).trace
        small = starting_config()
        large = small.replace(ruu_size=64, lsq_size=32)
        def gap(config):
            base = Pipeline(program, trace, config).run().cycles
            dup = Pipeline(
                program, trace, config.with_dispatch_dup()
            ).run().cycles
            return dup / base
        # A bigger window absorbs the duplicate entries.
        assert gap(large) <= gap(small) + 0.02


class TestDetection:
    def test_detects_and_recovers(self, dup_config):
        program, trace = trace_for("vortex", scale=4000)
        model = ScheduledFaultModel([(c, 2, 9) for c in range(50, 800, 50)])
        stats = Pipeline(
            program, trace, dup_config, fault_model=model,
            warm=True,
        ).run()
        assert stats.errors_detected > 0
        assert stats.recoveries == stats.errors_detected
        assert stats.committed == len(trace)

    def test_persistent_fault_stops_machine(self, mixed_trace, dup_config):
        program, trace = mixed_trace
        with pytest.raises(UnrecoverableFaultError):
            Pipeline(
                program, trace, dup_config,
                fault_model=BernoulliFaultModel(rate=1.0, seed=3),
            ).run()

    def test_clean_run_detects_nothing(self, mixed_trace, dup_config):
        program, trace = mixed_trace
        stats = Pipeline(program, trace, dup_config).run()
        assert stats.errors_detected == 0
        assert stats.sdc_commits == 0
