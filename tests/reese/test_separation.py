"""Tests for the P->R separation statistics (the paper's §2 quantity)."""

import pytest

from repro.arch import emulate
from repro.reese import EnvironmentalFaultModel
from repro.uarch import Pipeline, starting_config
from repro.uarch.stats import hist_count, hist_max
from repro.workloads import kernels
from repro.workloads.suite import trace_for


class TestSeparationAccounting:
    def test_populated_only_under_reese(self, loop_trace):
        program, trace = loop_trace
        base = Pipeline(program, trace, starting_config()).run()
        reese = Pipeline(
            program, trace, starting_config().with_reese()
        ).run()
        assert base.detect_latency == {}
        assert hist_count(reese.detect_latency) > 0
        assert reese.mean_pr_separation >= 1.0
        assert hist_max(reese.detect_latency) >= reese.mean_pr_separation

    def test_counts_match_r_completions(self, mixed_trace):
        program, trace = mixed_trace
        stats = Pipeline(
            program, trace, starting_config().with_reese()
        ).run()
        # Every R completion contributes exactly one sample.
        assert hist_count(stats.detect_latency) >= stats.comparisons

    def test_fuller_queue_means_longer_separation(self):
        program = kernels.ilp_block(400, 8)
        trace = emulate(program).trace
        config = starting_config()
        small = Pipeline(
            program, trace,
            config.with_reese(rqueue_size=8, high_water_margin=2),
        ).run()
        large = Pipeline(
            program, trace, config.with_reese(rqueue_size=64)
        ).run()
        # A bigger queue holds instructions longer before re-execution.
        assert large.mean_pr_separation >= small.mean_pr_separation

    def test_separation_predicts_coverage_knee(self):
        """Events shorter than the typical separation are mostly caught."""
        program, trace = trace_for("vortex", scale=5000)
        config = starting_config().with_reese()
        clean = Pipeline(program, trace, config, warm=True).run()
        sep = clean.mean_pr_separation
        assert sep > 0

        short = EnvironmentalFaultModel(rate=2e-3, duration=1, seed=9)
        short_stats = Pipeline(
            program, trace, config, fault_model=short, warm=True
        ).run()
        long = EnvironmentalFaultModel(
            rate=2e-3, duration=int(sep * 50) + 50, seed=9
        )
        long_stats = Pipeline(
            program, trace, config, fault_model=long, warm=True
        ).run()

        def escape_rate(stats):
            total = stats.errors_detected + stats.errors_undetected_same_event
            return stats.errors_undetected_same_event / total if total else 0

        assert escape_rate(short_stats) <= escape_rate(long_stats)

    def test_exported_in_to_dict(self, loop_trace):
        program, trace = loop_trace
        stats = Pipeline(
            program, trace, starting_config().with_reese()
        ).run()
        assert "mean_pr_separation" in stats.to_dict()
