"""Property-based tests of the observability layer.

For any generated program and machine variant:

* the runtime invariant checker passes on an unfaulted pipeline —
  legality is not an artefact of the hand-written workloads;
* every per-stage occupancy histogram sums to exactly the cycle count
  (each cycle is sampled once, no cycle twice).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import emulate
from repro.uarch import Pipeline, starting_config
from repro.uarch.observers import InvariantChecker, StageMetrics
from repro.workloads import MixProfile, generate_program


@st.composite
def program_and_trace(draw):
    seed = draw(st.integers(min_value=0, max_value=2**16))
    profile = MixProfile(
        mul=draw(st.sampled_from([0.0, 0.05, 0.1])),
        load=draw(st.sampled_from([0.1, 0.25])),
        store=draw(st.sampled_from([0.0, 0.1])),
        branch=draw(st.sampled_from([0.05, 0.15])),
        branch_predictability=draw(st.sampled_from([0.4, 0.9])),
    )
    program = generate_program(profile, n_dynamic=600, seed=seed)
    trace = emulate(program, max_instructions=8000).trace
    return program, trace


def _config_variants():
    base = starting_config()
    return st.sampled_from([
        base,
        base.with_reese(),
        base.with_reese(early_remove=True),
        base.with_reese(r_duty_cycle=0.5),
        base.with_dispatch_dup(),
    ])


class TestInvariantProperties:
    @given(program_and_trace(), _config_variants())
    @settings(max_examples=15, deadline=None)
    def test_checker_passes_on_unfaulted_pipelines(self, data, config):
        program, trace = data
        checker = InvariantChecker()
        stats = Pipeline(program, trace, config,
                         observers=[checker]).run()
        assert stats.committed == len(trace)
        assert checker.violations == []

    @given(program_and_trace())
    @settings(max_examples=10, deadline=None)
    def test_occupancy_histograms_sum_to_cycles(self, data):
        program, trace = data
        metrics = StageMetrics()
        stats = Pipeline(program, trace, starting_config().with_reese(),
                         observers=[metrics]).run()
        registry = stats.stage_metrics
        assert registry["cycles_sampled"] == stats.cycles
        for hist in registry["occupancy"].values():
            assert sum(hist.values()) == stats.cycles

    @given(program_and_trace())
    @settings(max_examples=8, deadline=None)
    def test_observed_run_matches_unobserved(self, data):
        """Attaching the full observer never perturbs the simulation."""
        program, trace = data
        config = starting_config().with_reese()
        plain = Pipeline(program, trace, config).run()
        observed = Pipeline(
            program, trace, config,
            observers=[InvariantChecker(), StageMetrics()],
        ).run()
        assert observed.cycles == plain.cycles
        assert observed.committed == plain.committed
        assert observed.issued_r == plain.issued_r
