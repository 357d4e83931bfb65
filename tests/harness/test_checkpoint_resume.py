"""Resumed, early-stopping injected runs against full runs from instruction 0.

Every campaign run resumes from the golden run's latest checkpoint at or
before its first planned ordinal, and stops as soon as its state matches
a later golden checkpoint bit for bit.  ``reference_classify`` is the
campaigns' run from before checkpoints, kept verbatim: it emulates from
instruction 0 to ``halt`` or the budget.  Both must give the same
outcome and the same injection log for every plan.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.analysis import analyze_program
from repro.arch.emulator import (
    CHECKPOINT_INTERVAL,
    EmulatorError,
    _resume_point,
    emulate,
    fold_words,
)
from repro.arch.memory import MisalignedAccessError
from repro.harness.campaign import (
    _classify,
    count_site_executions,
    sample_sites,
    site_plan,
)
from repro.isa import assemble
from repro.isa.instructions import Op
from repro.reese.faults import BernoulliPlan, PlannedInjector
from repro.workloads.generator import PROFILES, generate_program
from repro.workloads.suite import BENCHMARKS

HANG_FACTOR = 4


def reference_classify(program, plan, max_instructions, golden_state):
    """One injected emulation: its outcome label and its injection log.

    A run whose plan corrupted nothing is ``clean``.
    """
    injector = PlannedInjector(plan)
    try:
        run = emulate(program, max_instructions=max_instructions,
                      collect_trace=False, inject=injector.hook,
                      schedule=injector.schedule())
    except (MisalignedAccessError, EmulatorError):
        return "crash", injector.log
    if not injector.log:
        return "clean", injector.log
    if not run.halted:
        return "hang", injector.log
    if (run.output, run.memory.snapshot()) == golden_state:
        return "masked", injector.log
    return "sdc", injector.log


def resumed_run(program, plan, budget, golden):
    """The emulation ``_classify`` makes; ``None`` when it crashes."""
    injector = PlannedInjector(plan)
    try:
        return emulate(program, max_instructions=budget, collect_trace=False,
                       inject=injector.hook, schedule=injector.schedule(),
                       golden=golden.checkpoints)
    except (MisalignedAccessError, EmulatorError):
        return None


def setup(program):
    """(hang budget, golden run, execution counts) of ``program``."""
    budget = HANG_FACTOR * emulate(program, collect_trace=False).instructions
    golden, counts = count_site_executions(program, budget)
    return budget, golden, counts


def agree(program, plan, budget, golden):
    """Classify ``plan`` both ways, check they agree, return the outcome."""
    got = _classify(program, plan, budget, golden)
    assert got == reference_classify(program, plan, budget, golden.state)
    return got[0]


def index_of(program, op, nth=0):
    return [i for i, inst in enumerate(program.code) if inst.op is op][nth]


#: A loop with three nops per eight eligible instructions, so ordinals
#: and retired positions drift apart; its address is recomputed every
#: iteration, so a late strike can still crash.
NOP_HEAVY = """
.data
buf: .space 64
.text
main:
    li   r1, 300
    la   r2, buf
loop:
    nop
    addi r4, r4, 3
    nop
    nop
    andi r5, r1, 12
    add  r5, r5, r2
    sw   r4, 0(r5)
    lw   r6, 0(r5)
    subi r1, r1, 1
    bnez r1, loop
    putint r4
    halt
"""


@pytest.fixture(scope="module")
def generated():
    program = generate_program(PROFILES["default"], n_dynamic=3000, seed=11)
    return (program,) + setup(program)


@pytest.fixture(scope="module")
def nop_heavy():
    program = assemble(NOP_HEAVY, name="nop_heavy")
    return (program,) + setup(program)


@pytest.fixture(scope="module")
def li():
    program = BENCHMARKS["li"].build(scale=5000)
    return (program,) + setup(program)


class TestCheckpoints:
    def test_golden_records_every_interval_from_zero(self, nop_heavy,
                                                     generated, li):
        """Each checkpoint's state, its memory rebuilt by folding the
        checkpoints up to it, is a capped run's final state."""
        for program, _budget, golden, _counts in (nop_heavy, generated, li):
            length = emulate(program, collect_trace=False).instructions
            positions = [point.retired for point in golden.checkpoints]
            assert positions == list(range(0, length, CHECKPOINT_INTERVAL))
            for k, point in enumerate(golden.checkpoints):
                capped = emulate(program, max_instructions=point.retired,
                                 collect_trace=False)
                assert point.regs == capped.regs
                assert fold_words(golden.checkpoints[:k + 1]) == dict(
                    capped.memory.words())
                assert point.output == capped.output
        assert all(point.nops for point in nop_heavy[2].checkpoints[1:])

    @pytest.mark.parametrize("name", ["nop_heavy", "generated", "li"])
    def test_checkpoints_keep_only_the_changed_words(self, name, request):
        _program, _budget, golden, _counts = request.getfixturevalue(name)
        first, *rest = golden.checkpoints
        words = dict(first.words)
        for point in rest:
            assert all(words.get(addr) != word
                       for addr, word in point.words.items())
            words.update(point.words)

    def test_li_stores_its_memory_about_once(self, li):
        """li stores about 32 new words per checkpoint: whole copies
        stored 25x its final word count, the changed words stay within
        2x."""
        program, _budget, golden, _counts = li
        final = len(emulate(program, collect_trace=False).memory)
        stored = sum(len(point.words) for point in golden.checkpoints)
        assert len(golden.checkpoints) > 20
        assert stored <= 2 * final

    def test_resume_point_is_latest_at_or_before_the_ordinal(self,
                                                             nop_heavy):
        _program, _budget, golden, _counts = nop_heavy
        points = golden.checkpoints
        ordinals = [point.retired - point.nops for point in points]
        for k, ordinal in enumerate(ordinals):
            assert _resume_point(points, ordinal) is points[k]
            assert _resume_point(points, ordinal + 1) is points[k]
            if k:
                assert _resume_point(points, ordinal - 1) is points[k - 1]
        assert _resume_point(points, -1) is points[-1]

    def test_resumed_run_keeps_absolute_positions(self, nop_heavy):
        program, budget, golden, _counts = nop_heavy
        point = golden.checkpoints[2]
        def values(log):
            return lambda dyn: log.append((dyn.static.static_index, dyn.a,
                                           dyn.b, dyn.result))

        seen = []
        run = emulate(program, max_instructions=budget, collect_trace=False,
                      inject=values(seen),
                      schedule=[point.retired - point.nops + 4],
                      golden=golden.checkpoints)
        reference = []
        emulate(program, collect_trace=False, inject=values(reference),
                schedule=[point.retired - point.nops + 4])
        assert len(seen) == 1 and seen == reference
        # A hook that corrupts nothing leaves the run golden, so it
        # stops at the next checkpoint position.
        assert run.converged and not run.halted
        assert run.instructions == golden.checkpoints[3].retired

    def test_golden_needs_a_schedule_and_no_trace(self, nop_heavy):
        program, _budget, golden, _counts = nop_heavy
        with pytest.raises(ValueError):
            emulate(program, inject=lambda dyn: None,
                    golden=golden.checkpoints)
        with pytest.raises(ValueError):
            emulate(program, inject=lambda dyn: None, schedule=[3],
                    golden=golden.checkpoints)


class TestDifferentialCases:
    def test_strike_at_ordinal_zero(self, generated):
        program, budget, golden, _counts = generated
        for bit in (0, 3, 17, 30):
            agree(program, ((0, bit),), budget, golden)

    def test_strike_on_each_checkpoint_position(self, generated):
        program, budget, golden, _counts = generated
        points = golden.checkpoints
        assert len(points) > 3
        for k, point in enumerate(points):
            ordinal = point.retired - point.nops
            assert _resume_point(points, ordinal) is point
            for bit in (1, 9, 31):
                agree(program, ((ordinal, bit),), budget, golden)

    def test_strike_just_before_halt(self, generated):
        program, budget, golden, counts = generated
        last = len(counts.order) - 1
        assert program.code[counts.order[last]].op is Op.PUTINT
        assert agree(program, ((last, 4),), budget, golden) == "clean"
        assert agree(program, ((last - 1, 4),), budget, golden) == "sdc"

    def test_plan_past_the_golden_length_is_clean(self, generated):
        program, budget, golden, counts = generated
        end = len(counts.order)
        for ordinal in (end, end + 1, end + 500):
            assert _classify(program, ((ordinal, 2),), budget,
                             golden) == ("clean", [])
            assert agree(program, ((ordinal, 2),), budget, golden) == "clean"

    def test_nop_heavy_program(self, nop_heavy):
        program, budget, golden, counts = nop_heavy
        assert golden.checkpoints[-1].nops > 0
        outcomes = set()
        for ordinal in range(0, len(counts.order), 37):
            for bit in (0, 2, 5, 30):
                outcomes.add(agree(program, ((ordinal, bit),), budget,
                                   golden))
        assert {"masked", "sdc", "crash", "hang"} <= outcomes

    def test_hang_and_crash_after_a_resume(self, nop_heavy):
        program, budget, golden, counts = nop_heavy
        subi = index_of(program, Op.ADDI, 3)  # subi r1, r1, 1
        late = counts[subi] - 40
        second = golden.checkpoints[1]
        hang = counts.ordinal(subi, late)
        crash = counts.ordinal(index_of(program, Op.ADD), late)
        for ordinal in (hang, crash):
            assert ordinal > second.retired - second.nops
            assert _resume_point(golden.checkpoints, ordinal) is not \
                golden.checkpoints[0]
        assert agree(program, ((hang, 30),), budget, golden) == "hang"
        assert agree(program, ((crash, 0),), budget, golden) == "crash"


profiles = st.sampled_from(sorted(PROFILES))
program_seeds = st.integers(min_value=0, max_value=10_000)


class TestDifferentialProperties:
    @settings(max_examples=15, deadline=None)
    @given(profiles, program_seeds,
           st.lists(st.tuples(st.floats(0.0, 1.05), st.integers(0, 31)),
                    min_size=1, max_size=6))
    def test_site_plans(self, profile, seed, strikes):
        program = generate_program(PROFILES[profile], n_dynamic=1500,
                                   seed=seed)
        budget, golden, counts = setup(program)
        for where, bit in strikes:
            ordinal = int(where * len(counts.order))
            agree(program, ((ordinal, bit),), budget, golden)

    @settings(max_examples=15, deadline=None)
    @given(profiles, program_seeds,
           st.lists(st.tuples(st.sampled_from([1e-4, 1e-3, 4e-3]),
                              st.integers(0, 2**16)),
                    min_size=1, max_size=4))
    def test_bernoulli_plans(self, profile, seed, draws):
        program = generate_program(PROFILES[profile], n_dynamic=1500,
                                   seed=seed)
        budget, golden, _counts = setup(program)
        for rate, plan_seed in draws:
            agree(program, BernoulliPlan(rate, plan_seed, budget), budget,
                  golden)


def _fp_program(compute: str) -> str:
    """A value computed into f3, then 600 instructions of loop that
    cross two checkpoint positions, then a store of f3."""
    return f"""
.data
out: .space 8
.text
main:
    la   r2, out
    cvtif f1, r0
    fdiv f2, f1, f1
    {compute}
    li   r1, 200
loop:
    addi r3, r3, 1
    subi r1, r1, 1
    bnez r1, loop
    swf  f3, 0(r2)
    halt
"""


class TestConvergenceExactness:
    """A register that compares equal but differs in bits must not
    converge: the later store exposes the difference."""

    @pytest.mark.parametrize("compute, op, bit", [
        # golden 0.0; bit 63 flips the sign: -0.0 == 0.0 in Python.
        ("fadd f3, f1, f1", Op.FADD, 63),
        # golden inf - inf = NaN; bit 29 changes the payload, which the
        # float32 store keeps.
        ("fsub f3, f2, f2", Op.FSUB, 29),
    ])
    def test_bit_difference_at_a_checkpoint_is_sdc(self, compute, op, bit):
        program = assemble(_fp_program(compute), name="fp_exactness")
        budget, golden, counts = setup(program)
        ordinal = counts.ordinal(index_of(program, op), 0)
        plan = ((ordinal, bit),)
        run = resumed_run(program, plan, budget, golden)
        assert not run.converged and run.halted
        assert run.instructions > 2 * CHECKPOINT_INTERVAL
        assert agree(program, plan, budget, golden) == "sdc"

    @pytest.mark.parametrize("source, op, bit", [
        # A flipped branch runs a copy of the golden loop at other
        # addresses: only the index differs at the checkpoints.
        ("""
        li   r1, 1
        bnez r1, a
        li   r2, 150
    b:  subi r2, r2, 1
        bnez r2, b
        putint r2
        halt
    a:  li   r2, 150
    c:  subi r2, r2, 1
        bnez r2, c
        halt
        """, Op.BNE, 0),
        # A flipped value is printed, then overwritten: only the output
        # differs at the checkpoints.
        ("""
        li   r4, 5
        putint r4
        li   r4, 0
        li   r2, 300
    d:  subi r2, r2, 1
        bnez r2, d
        halt
        """, Op.ADDI, 1),
    ])
    def test_every_state_part_is_compared(self, source, op, bit):
        program = assemble(source, name="state_parts")
        budget, golden, counts = setup(program)
        plan = ((counts.ordinal(index_of(program, op), 0), bit),)
        run = resumed_run(program, plan, budget, golden)
        assert not run.converged and run.halted
        assert agree(program, plan, budget, golden) == "sdc"

    def test_gcc_converged_runs_were_masked(self):
        """Count pin: every run that stops at convergence is one the
        full run from instruction 0 classifies ``masked``."""
        program = BENCHMARKS["gcc"].build(scale=2000)
        budget, golden, counts = setup(program)
        analysis = analyze_program(program, use_cache=False)
        plans = [site_plan(counts, sample)
                 for seed in (0, 1, 2)
                 for sample in sample_sites(analysis, counts, 8, seed)]
        plans += [BernoulliPlan(2e-4, seed, budget) for seed in range(6)]
        converged = masked = 0
        for plan in plans:
            run = resumed_run(program, plan, budget, golden)
            outcome, _log = reference_classify(program, plan, budget,
                                               golden.state)
            masked += outcome == "masked"
            if run is not None and run.converged:
                converged += 1
                assert outcome == "masked", plan
        assert 0 < converged <= masked
