"""Property-based end-to-end invariants of the timing models.

For any generated program:

* the baseline pipeline commits exactly the emulator's trace;
* the REESE pipeline commits exactly the same instructions;
* without faults, REESE detects nothing;
* REESE is never faster than ~the baseline and never slower than the
  full-serialisation bound.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import emulate
from repro.uarch import Pipeline, starting_config
from repro.uarch.observe import InvariantChecker, Observability
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


class TestPipelineProperties:
    @given(program_and_trace())
    @settings(max_examples=15, deadline=None)
    def test_baseline_commits_trace_exactly(self, data):
        program, trace = data
        stats = Pipeline(program, trace, starting_config()).run()
        assert stats.committed == len(trace)

    @given(program_and_trace())
    @settings(max_examples=15, deadline=None)
    def test_reese_commits_trace_exactly(self, data):
        program, trace = data
        config = starting_config().with_reese()
        stats = Pipeline(program, trace, config).run()
        assert stats.committed == len(trace)
        assert stats.errors_detected == 0
        assert stats.sdc_commits == 0

    @given(program_and_trace())
    @settings(max_examples=10, deadline=None)
    def test_reese_cycle_bracket(self, data):
        program, trace = data
        base = Pipeline(program, trace, starting_config()).run()
        reese = Pipeline(
            program, trace, starting_config().with_reese()
        ).run()
        # REESE can be marginally faster only through scheduling noise.
        assert reese.cycles >= base.cycles * 0.95
        # And at worst fully serialises the two streams.
        assert reese.cycles <= base.cycles * 3 + 200

    @given(program_and_trace())
    @settings(max_examples=8, deadline=None)
    def test_duty_cycle_preserves_commit_count(self, data):
        program, trace = data
        config = starting_config().with_reese(r_duty_cycle=0.5)
        stats = Pipeline(program, trace, config).run()
        assert stats.committed == len(trace)

    @given(program_and_trace())
    @settings(max_examples=8, deadline=None)
    def test_early_remove_preserves_commit_count(self, data):
        program, trace = data
        config = starting_config().with_reese(early_remove=True)
        stats = Pipeline(program, trace, config).run()
        assert stats.committed == len(trace)


#: The REESE knobs Figure 2 never sets, one machine each.
_REESE_KNOBS = {
    "early_remove": dict(early_remove=True),
    "rqueue_size=8": dict(rqueue_size=8, high_water_margin=2),
    "r_issue_width=2": dict(r_issue_width=2),
    "r_duty_cycle=0.5": dict(r_duty_cycle=0.5),
}


class TestReeseKnobsUnderTheChecker:
    """The R-stream Queue entry is the pipeline's own entry: under every
    REESE knob, with the invariant checker watching each queue step, a
    fault-free run commits the whole trace in order, detects nothing and
    compares each re-executed instruction exactly once."""

    @given(program_and_trace(), st.sampled_from(sorted(_REESE_KNOBS)))
    @settings(max_examples=24, deadline=None)
    def test_commits_in_order_and_compares_once(self, data, knob):
        program, trace = data
        config = starting_config().with_reese(**_REESE_KNOBS[knob])
        checker = InvariantChecker()
        stats = Pipeline(program, trace, config,
                         observer=Observability(checker=checker)).run()
        assert stats.committed == len(trace)
        assert checker.violations == []
        assert stats.errors_detected == 0
        assert stats.comparisons == stats.issued_r
        if knob == "r_duty_cycle=0.5":
            assert stats.issued_r < stats.committed
