"""Static analysis vs. the functional emulator on generated workloads.

The analyzer's deadness verdicts must be *sound* with respect to every
dynamic execution: these properties run the same generated programs the
ILP-profile suite uses through both the static passes and the emulator
and check the static claims against the observed trace.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import analyze_program
from repro.analysis.cfg import build_cfg, call_return_points, \
    instruction_successors
from repro.arch import emulate
from repro.workloads.generator import PROFILES, generate_program

profiles = st.sampled_from(sorted(PROFILES))
seeds = st.integers(min_value=0, max_value=10_000)


def _generated(profile_name, seed):
    program = generate_program(
        PROFILES[profile_name], n_dynamic=1500, seed=seed
    )
    run = emulate(program, max_instructions=100_000)
    assert run.halted, "generated workloads must terminate"
    return program, run


class TestStaticDynamicAgreement:
    @settings(max_examples=10, deadline=None)
    @given(profiles, seeds)
    def test_directly_dead_values_never_read(self, profile_name, seed):
        """A statically dead-at-definition value is never read at runtime.

        ``(i, r)`` in ``directly_dead`` claims the value written by
        instruction ``i`` into register ``r`` is redefined before any
        read on *every* path; the trace is one such path, so any
        dynamic read of the pending value refutes the claim.
        """
        program, run = _generated(profile_name, seed)
        analysis = analyze_program(program, use_cache=False)
        pending = {}  # register -> static index of the last write
        for seq, dyn in enumerate(run.trace):
            static = dyn.static
            for reg in static.srcs:
                writer = pending.get(reg)
                assert writer is None or \
                    (writer, reg) not in analysis.directly_dead, (
                        f"dead site ({writer}, r{reg}) read at "
                        f"#{seq} ({static.op.name})"
                    )
            if static.dst >= 0:
                pending[static.dst] = static.static_index
        # Stores read their data through srcs as well; nothing else to do.

    @settings(max_examples=10, deadline=None)
    @given(profiles, seeds)
    def test_every_executed_write_has_a_site(self, profile_name, seed):
        """Every dynamic register write maps to a classified site."""
        program, run = _generated(profile_name, seed)
        analysis = analyze_program(program, use_cache=False)
        for dyn in run.trace:
            static = dyn.static
            if static.dst >= 0:
                assert ((static.static_index, static.dst)
                        in analysis.site_classes)

    @settings(max_examples=10, deadline=None)
    @given(profiles, seeds)
    def test_trace_stays_on_cfg_edges(self, profile_name, seed):
        """Observed control flow is a subset of the recovered CFG.

        For every consecutive trace pair, the successor's static index
        must be among the static successors of the predecessor — the
        over-approximation direction that keeps ``dead`` sound.
        """
        program, run = _generated(profile_name, seed)
        return_points = call_return_points(program)
        for dyn in run.trace[:-1]:
            succs = instruction_successors(
                program, dyn.static.static_index, return_points
            )
            assert dyn.next_index in succs, (
                f"dynamic edge {dyn.static.static_index}->{dyn.next_index} "
                f"missing from static successors {succs}"
            )

    @settings(max_examples=6, deadline=None)
    @given(profiles, seeds)
    def test_analysis_is_deterministic(self, profile_name, seed):
        """Same program, same verdicts — no iteration-order leakage."""
        program, _run = _generated(profile_name, seed)
        first = analyze_program(program, use_cache=False)
        second = analyze_program(program, use_cache=False)
        assert first.site_classes == second.site_classes
        assert first.findings == second.findings
        assert first.fingerprint == second.fingerprint
