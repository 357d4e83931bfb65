"""End-to-end fault campaigns: SDC without REESE vs detection with it."""

import pytest

from repro.harness.campaign import run_campaign
from repro.reese import EnvironmentalFaultModel
from repro.uarch import Pipeline, starting_config
from repro.workloads import kernels
from repro.workloads.suite import trace_for


class TestArchitecturalCampaign:
    """The emulator-level campaign: what soft errors do WITHOUT REESE."""

    def test_campaign_classifies_outcomes(self):
        program, _ = kernels.matmul(6, seed=8)
        result = run_campaign(program, runs=30, rate=0.01, seed=0)
        assert result.runs == 30
        assert sum(result.outcomes.values()) == 30
        # At 1% per-instruction rate virtually every run is struck, and
        # corruption surfaces as SDC or a crash.
        assert result.outcomes["sdc"] + result.outcomes["crash"] >= 20

    def test_campaign_low_rate_mostly_clean(self):
        program, _ = kernels.vector_sum(32, seed=2)
        result = run_campaign(program, runs=20, rate=1e-6, seed=0)
        assert result.outcomes["clean"] >= 15

    def test_campaign_report_renders(self):
        program, _ = kernels.fibonacci(20)
        result = run_campaign(program, runs=5, rate=0.005, seed=3)
        text = result.report()
        assert "fault campaign" in text
        assert "sdc" in text

    def test_campaign_requires_halting_golden_run(self):
        from repro.isa import assemble
        looping = assemble("x: j x")
        with pytest.raises(ValueError):
            run_campaign(looping, runs=1, max_instructions=100)

    def test_campaign_deterministic(self):
        program, _ = kernels.string_hash("determinism")
        a = run_campaign(program, runs=10, rate=0.01, seed=7)
        b = run_campaign(program, runs=10, rate=0.01, seed=7)
        assert a.outcomes == b.outcomes

    def test_campaign_worker_count_invariant(self):
        program, _ = kernels.string_hash("parallel")
        sequential = run_campaign(program, runs=12, rate=0.01, seed=7, jobs=1)
        parallel = run_campaign(program, runs=12, rate=0.01, seed=7, jobs=3)
        assert sequential.outcomes == parallel.outcomes
        assert sequential.injections == parallel.injections


class TestTimingCampaign:
    """The REESE campaign: detection coverage vs event duration (Δt)."""

    @pytest.fixture(scope="class")
    def workload(self):
        return trace_for("ijpeg", scale=6000)

    def _run(self, workload, duration, reese=True, seed=5, rate=2e-3):
        program, trace = workload
        config = starting_config()
        if reese:
            config = config.with_reese()
        model = EnvironmentalFaultModel(
            rate=rate, duration=duration, seed=seed
        )
        stats = Pipeline(
            program, trace, config, fault_model=model,
            warm=True,
        ).run()
        return stats, model

    def test_short_events_are_detected(self, workload):
        stats, model = self._run(workload, duration=1)
        assert model.strikes > 0
        assert stats.errors_detected > 0
        assert stats.sdc_commits == 0
        assert stats.committed == len(workload[1])

    def test_coverage_degrades_with_event_duration(self, workload):
        """The paper's §2 claim: detection requires P-R separation > Δt."""
        escape_rates = []
        for duration in (1, 50, 400):
            stats, _ = self._run(workload, duration=duration)
            total = (
                stats.errors_detected + stats.errors_undetected_same_event
            )
            escape = (
                stats.errors_undetected_same_event / total if total else 0.0
            )
            escape_rates.append(escape)
        assert escape_rates[0] <= escape_rates[-1]
        assert escape_rates[0] < 0.2     # short events: nearly all caught
        assert escape_rates[-1] > 0.3    # long events mostly escape

    def test_baseline_suffers_sdc_where_reese_detects(self, workload):
        reese_stats, _ = self._run(workload, duration=1, reese=True)
        base_stats, base_model = self._run(workload, duration=1, reese=False)
        assert base_model.strikes > 0
        assert base_stats.sdc_commits > 0
        assert base_stats.errors_detected == 0
        assert reese_stats.errors_detected > 0

    def test_recovery_overhead_is_bounded(self, workload):
        program, trace = workload
        clean = Pipeline(
            program, trace, starting_config().with_reese(),
            warm=True,
        ).run()
        stats, _ = self._run(workload, duration=1)
        # A handful of recoveries should cost well under 20% extra time.
        assert stats.cycles <= clean.cycles * 1.2
