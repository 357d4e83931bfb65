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

The accountant keeps its count of unissued correct-path RUU entries
from the dispatch, issue and recovery hooks alone; every profiled run
here also recomputes that count from the RUU each cycle and checks
that the two agree.
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


class _RescanReference:
    """Recompute the unissued correct-path RUU entries every cycle, by
    scanning the RUU, and compare with the accountant's hook-kept count."""

    def __init__(self, accountant):
        self.accountant = accountant
        self.cycles = 0

    def on_cycle(self, pipe):
        rescan = sum(
            1 for entry in pipe.ruu
            if not entry.issued and not entry.squashed
            and not entry.wrong_path
        )
        assert self.accountant._unissued == rescan, (
            f"cycle {pipe.cycle}: hook-kept count "
            f"{self.accountant._unissued} != RUU rescan {rescan}"
        )
        self.cycles += 1


def _profiled_run(program, trace, config, fault_model=None):
    accountant = CycleAccountant()
    reference = _RescanReference(accountant)
    stats = Pipeline(
        program, trace, config, fault_model=fault_model,
        observers=[accountant, reference],
    ).run()
    assert reference.cycles == stats.cycles
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

    @given(program_and_trace(),
           st.sampled_from(["baseline", "reese", "dispatch_dup"]),
           st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=8, deadline=None)
    def test_faulted_runs_keep_the_unissued_count(self, data, machine,
                                                  seed):
        program, trace = data
        config = {
            "baseline": starting_config(),
            "reese": starting_config().with_reese(),
            "dispatch_dup": starting_config().with_dispatch_dup(),
        }[machine]
        model = EnvironmentalFaultModel(rate=2e-3, duration=2, seed=seed)
        _assert_identities(
            _profiled_run(program, trace, config, fault_model=model)
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
