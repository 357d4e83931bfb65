"""Fault-injection negative tests: no fault model is silently absorbed.

Every fault model in :mod:`repro.reese.faults` is injected into a
machine with detection **disabled** (the baseline pipeline, which
commits corrupted results as silent data corruption) while the runtime
invariant checker watches: each corrupted commit must raise a
``commit-oracle`` violation.  Then the same models run on REESE with
detection enabled and the comparator must catch them — including the
paper's §2 blind spot, where one environmental event spanning both the
P and R executions corrupts them identically and slips past the
comparator but **not** past the checker's re-execution oracle.
"""

import pytest

from repro.reese.faults import (
    BernoulliFaultModel,
    EnvironmentalFaultModel,
    ScheduledFaultModel,
)
from repro.uarch import Pipeline, starting_config
from repro.uarch.observers import InvariantChecker, InvariantViolation

#: One aggressive instance of every fault model: enough strikes that a
#: detection-disabled run is guaranteed to commit corrupted values.
AGGRESSIVE_MODELS = {
    "scheduled": lambda: ScheduledFaultModel([(10, 1_000_000, 9)]),
    "bernoulli": lambda: BernoulliFaultModel(rate=0.2, seed=7),
    "environmental": lambda: EnvironmentalFaultModel(
        rate=0.05, duration=3, seed=3
    ),
}


@pytest.mark.parametrize("model_name", sorted(AGGRESSIVE_MODELS))
class TestDetectionDisabled:
    """Baseline machine (no comparator) + invariant checker."""

    def test_checker_raises_on_first_corrupted_commit(
        self, model_name, mixed_trace, cfg
    ):
        program, trace = mixed_trace
        with pytest.raises(InvariantViolation) as excinfo:
            Pipeline(
                program, trace, cfg,
                fault_model=AGGRESSIVE_MODELS[model_name](),
                observers=[InvariantChecker()],
            ).run()
        assert excinfo.value.invariant == "commit-oracle"
        assert excinfo.value.trace_seq is not None

    def test_every_sdc_commit_is_flagged(self, model_name, mixed_trace, cfg):
        """Collect mode: one commit-oracle violation per corrupted commit."""
        program, trace = mixed_trace
        model = AGGRESSIVE_MODELS[model_name]()
        checker = InvariantChecker(collect=True)
        stats = Pipeline(
            program, trace, cfg, fault_model=model,
            observers=[checker],
        ).run()
        assert model.strikes > 0
        assert stats.sdc_commits > 0, "fault model never corrupted a commit"
        assert len(checker.violations) == stats.sdc_commits
        assert {v.invariant for v in checker.violations} == {"commit-oracle"}

    def test_unchecked_baseline_absorbs_the_fault(
        self, model_name, mixed_trace, cfg
    ):
        """The control: without the checker the same run commits silently."""
        program, trace = mixed_trace
        stats = Pipeline(
            program, trace, cfg,
            fault_model=AGGRESSIVE_MODELS[model_name](),
        ).run()
        assert stats.sdc_commits > 0
        assert stats.errors_detected == 0
        assert stats.committed == len(trace)


class TestDetectionEnabled:
    """REESE with the comparator active catches what it is built for."""

    def test_bernoulli_faults_are_detected(self, mixed_trace, cfg):
        program, trace = mixed_trace
        stats = Pipeline(
            program, trace, cfg.with_reese(),
            fault_model=BernoulliFaultModel(rate=0.02, seed=7),
        ).run()
        assert stats.errors_detected >= 1
        assert stats.recoveries == stats.errors_detected
        assert stats.committed == len(trace)
        assert stats.sdc_commits == 0

    def test_short_environmental_events_are_detected(self, mixed_trace, cfg):
        """Events shorter than the P/R separation are always caught."""
        program, trace = mixed_trace
        stats = Pipeline(
            program, trace, cfg.with_reese(),
            fault_model=EnvironmentalFaultModel(rate=0.01, duration=2,
                                                seed=3),
        ).run()
        assert stats.errors_detected >= 1
        assert stats.committed == len(trace)

    def test_same_event_escape_is_caught_by_the_checker(
        self, mixed_trace, cfg
    ):
        """The comparator's blind spot (paper §2) is not the checker's.

        A single event spanning the whole run corrupts every P and R
        execution identically, so each comparison passes and the error
        escapes as an ``errors_undetected_same_event`` — yet every such
        commit still fails the checker's re-execution oracle.
        """
        program, trace = mixed_trace
        checker = InvariantChecker(collect=True)
        stats = Pipeline(
            program, trace, cfg.with_reese(),
            fault_model=ScheduledFaultModel([(0, 1_000_000, 9)]),
            observers=[checker],
        ).run()
        assert stats.errors_detected == 0
        assert stats.errors_undetected_same_event >= 1
        assert len(checker.violations) >= 1
        assert {v.invariant for v in checker.violations} == {"commit-oracle"}
