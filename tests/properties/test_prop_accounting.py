"""Property tests: the cycle-accounting completeness identities.

The profiler's whole value rests on two identities holding by
construction, for every machine model and execution mode:

* every cycle is charged to exactly one cycle cause
  (``sum(cycles) == cycles_total``), and
* every issue slot is charged to exactly one slot cause
  (``sum(slots) == width * cycles_total``).

Any generated program, baseline or REESE or dispatch-dup, fault-free
or fault-injected, full-detail or sampled — no residual, no double
charge.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import emulate
from repro.reese.faults import EnvironmentalFaultModel
from repro.uarch import Pipeline, starting_config
from repro.uarch.accounting import (
    CycleAccountant,
    accounting_identity_errors,
    r_share_of_delta,
)
from repro.uarch.observe import ObserveConfig
from repro.uarch.sampling import SamplingSpec, run_sampled
from repro.workloads import MixProfile, generate_program


@st.composite
def program_and_trace(draw):
    seed = draw(st.integers(min_value=0, max_value=2**16))
    profile = MixProfile(
        mul=draw(st.sampled_from([0.0, 0.1])),
        load=draw(st.sampled_from([0.1, 0.25])),
        store=draw(st.sampled_from([0.0, 0.1])),
        branch=draw(st.sampled_from([0.05, 0.15])),
        branch_predictability=draw(st.sampled_from([0.4, 0.9])),
    )
    program = generate_program(profile, n_dynamic=500, seed=seed)
    trace = emulate(program, max_instructions=6000).trace
    return program, trace


def _profiled_run(program, trace, config, fault_model=None):
    stats = Pipeline(
        program, trace, config, fault_model=fault_model,
        observers=[CycleAccountant()],
    ).run()
    return stats


def _assert_identities(stats):
    account = stats.accounting
    assert account, "profiled run produced no account"
    assert accounting_identity_errors(account) == []
    assert account["cycles_total"] == stats.cycles


class TestAccountingIdentity:
    @given(program_and_trace())
    @settings(max_examples=10, deadline=None)
    def test_baseline_identity(self, data):
        program, trace = data
        _assert_identities(
            _profiled_run(program, trace, starting_config())
        )

    @given(program_and_trace())
    @settings(max_examples=10, deadline=None)
    def test_reese_identity_and_r_share(self, data):
        program, trace = data
        base = _profiled_run(program, trace, starting_config())
        reese = _profiled_run(
            program, trace, starting_config().with_reese()
        )
        _assert_identities(base)
        _assert_identities(reese)
        r_delta, total = r_share_of_delta(base.accounting, reese.accounting)
        assert 0 <= r_delta <= total

    @given(program_and_trace())
    @settings(max_examples=6, deadline=None)
    def test_dispatch_dup_identity(self, data):
        program, trace = data
        _assert_identities(
            _profiled_run(
                program, trace, starting_config().with_dispatch_dup()
            )
        )

    @given(program_and_trace(),
           st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=6, deadline=None)
    def test_faulted_reese_identity(self, data, seed):
        program, trace = data
        model = EnvironmentalFaultModel(rate=2e-3, duration=2, seed=seed)
        _assert_identities(
            _profiled_run(
                program, trace, starting_config().with_reese(),
                fault_model=model,
            )
        )

    @given(program_and_trace())
    @settings(max_examples=4, deadline=None)
    def test_sampled_identity_survives_interval_merge(self, data):
        program, trace = data
        spec = SamplingSpec(intervals=3, interval_length=120, warmup=30)
        result = run_sampled(
            program, trace, starting_config().with_reese(), spec,
            observe=ObserveConfig(profile=True),
        )
        _assert_identities(result.stats)

    @given(program_and_trace())
    @settings(max_examples=6, deadline=None)
    def test_unprofiled_run_carries_no_account(self, data):
        program, trace = data
        stats = Pipeline(program, trace, starting_config()).run()
        assert stats.accounting == {}
