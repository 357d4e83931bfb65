"""Cross-model integration: emulator, baseline pipeline, REESE pipeline.

Every timing model must commit *exactly* the dynamic instruction stream
the functional emulator retired — this is the central end-to-end
consistency property of the execution-driven design.
"""

import pytest

from repro.arch import emulate
from repro.uarch import (
    Pipeline,
    bigger_window_config,
    large_machine_config,
    starting_config,
    wide_datapath_config,
)
from repro.workloads import BENCHMARK_ORDER
from repro.workloads.suite import trace_for

SCALE = 2500


@pytest.fixture(scope="module", params=BENCHMARK_ORDER)
def benchmark_trace(request):
    return request.param, trace_for(request.param, scale=SCALE)


class TestEveryBenchmarkEveryModel:
    def test_baseline_commits_trace(self, benchmark_trace):
        name, (program, trace) = benchmark_trace
        stats = Pipeline(program, trace, starting_config()).run()
        assert stats.committed == len(trace), name
        assert stats.halted

    def test_reese_commits_trace(self, benchmark_trace):
        name, (program, trace) = benchmark_trace
        stats = Pipeline(program, trace, starting_config().with_reese()).run()
        assert stats.committed == len(trace), name
        assert stats.errors_detected == 0

    def test_reese_redundancy_is_complete(self, benchmark_trace):
        """Full duplication: every non-trivial commit was re-executed."""
        name, (program, trace) = benchmark_trace
        stats = Pipeline(program, trace, starting_config().with_reese()).run()
        from repro.isa.instructions import FUClass, Op
        trivial = sum(
            1 for dyn in trace
            if dyn.static.fu == FUClass.NONE or dyn.static.op is Op.HALT
        )
        assert stats.issued_r == len(trace) - trivial, name


class TestAllHardwareVariants:
    @pytest.mark.parametrize(
        "factory",
        [
            starting_config,
            bigger_window_config,
            wide_datapath_config,
            lambda: large_machine_config(64),
            lambda: large_machine_config(256, extra_fus=True),
        ],
    )
    @pytest.mark.parametrize("reese", [False, True])
    def test_commit_exactness_across_configs(self, factory, reese):
        program, trace = trace_for("li", scale=SCALE)
        config = factory()
        if reese:
            config = config.with_reese()
        stats = Pipeline(program, trace, config).run()
        assert stats.committed == len(trace)


class TestWarmupConsistency:
    def test_warmup_changes_timing_not_commits(self):
        program, trace = trace_for("gcc", scale=SCALE)
        cold = Pipeline(program, trace, starting_config()).run()
        warm = Pipeline(
            program, trace, starting_config(),
            warm=True,
        ).run()
        assert cold.committed == warm.committed
        assert warm.cycles <= cold.cycles
