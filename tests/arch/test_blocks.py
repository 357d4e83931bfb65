"""Translated basic blocks against the interpreter.

Hookless stretches run translated blocks; every other stretch, and any
run on an :class:`Interpreted` cache, runs on the interpreter, which is
the reference.  Both must leave the same state, bit for bit, stop at the
same place and raise the same errors.
"""

from struct import pack

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import emulator
from repro.arch.emulator import (
    BlockCache,
    EmulatorError,
    emulate,
)
from repro.arch.memory import MisalignedAccessError
from repro.harness.campaign import run_campaign, run_site_campaign
from repro.isa import assemble
from repro.reese.faults import BernoulliPlan, PlannedInjector
from repro.workloads import kernels
from repro.workloads.generator import PROFILES, generate_program


class Interpreted(BlockCache):
    """A cache that translates nothing: every stretch is interpreted."""

    def translate(self, leader):
        return False


def bits(value):
    """A register value's type and exact bits (``-0.0`` != ``0.0``)."""
    return (type(value), pack("<d", value) if type(value) is float else value)


def state(run):
    """Everything a run leaves behind, comparable with ``==``."""
    return ([bits(value) for value in run.regs], dict(run.memory.words()),
            run.output, run.instructions, run.halted, run.converged,
            [point._replace(regs=[bits(v) for v in point.regs])
             for point in run.checkpoints or ()],
            run.order)


def both(program, **kwargs):
    """``(blocks, interpreter)``: the outcome of one run on each engine,
    ``state(run)`` or the raised error's type and message."""
    outcomes = []
    for cache in (BlockCache(program), Interpreted(program)):
        try:
            outcomes.append(state(emulate(program, blocks=cache, **kwargs)))
        except (EmulatorError, MisalignedAccessError) as error:
            outcomes.append((type(error), str(error)))
    return outcomes


def injected(program, plan, budget, golden, cache):
    """A campaign run of ``plan`` on ``cache``: its state and log."""
    injector = PlannedInjector(plan)
    try:
        run = emulate(program, max_instructions=budget, collect_trace=False,
                      inject=injector.hook, schedule=injector.schedule(),
                      golden=golden, blocks=cache)
    except (EmulatorError, MisalignedAccessError) as error:
        return (type(error), str(error)), injector.log
    return state(run), injector.log


def golden_of(program):
    """``(budget, checkpoints, length)`` of ``program``'s golden run."""
    run = emulate(program, collect_trace=False, checkpoints=True)
    return 4 * run.instructions, run.checkpoints, run.instructions


def quicksort():
    return kernels.quicksort(n=40, seed=5)[0]


profiles = st.sampled_from(sorted(PROFILES))
program_seeds = st.integers(min_value=0, max_value=10_000)


def generated(profile, seed):
    return generate_program(PROFILES[profile], n_dynamic=1200, seed=seed)


class TestHooklessRuns:
    @settings(max_examples=20, deadline=None)
    @given(profiles, program_seeds, st.booleans())
    def test_generated_programs(self, profile, seed, checkpoints):
        program = generated(profile, seed)
        blocks, reference = both(program, collect_trace=False,
                                 checkpoints=checkpoints, order=True)
        assert blocks == reference

    @pytest.mark.parametrize("checkpoints", [False, True])
    def test_quicksort(self, checkpoints):
        program = quicksort()
        blocks, reference = both(program, collect_trace=False,
                                 checkpoints=checkpoints, order=True)
        assert blocks == reference
        assert blocks[4]  # halted

    @settings(max_examples=20, deadline=None)
    @given(profiles, program_seeds, st.floats(0.0, 1.0))
    def test_budget_cuts_a_block(self, profile, seed, where):
        program = generated(profile, seed)
        _budget, _points, length = golden_of(program)
        budget = max(1, int(where * length))
        blocks, reference = both(program, collect_trace=False,
                                 max_instructions=budget, order=True)
        assert blocks == reference
        assert blocks[3] == budget  # instructions

    def test_every_budget_on_quicksort(self):
        program = quicksort()
        for budget in range(1, 400, 7):
            blocks, reference = both(program, collect_trace=False,
                                     max_instructions=budget)
            assert blocks == reference

    @settings(max_examples=10, deadline=None)
    @given(profiles, program_seeds)
    def test_order_matches_the_counting_hook(self, profile, seed):
        for program in (generated(profile, seed), quicksort()):
            hooked = []
            emulate(program, collect_trace=False,
                    inject=lambda dyn: hooked.append(dyn.static.static_index))
            run = emulate(program, collect_trace=False, checkpoints=True,
                          order=True)
            assert run.order == hooked

    def test_order_needs_a_hookless_run(self):
        program = quicksort()
        with pytest.raises(ValueError):
            emulate(program, order=True)
        with pytest.raises(ValueError):
            emulate(program, collect_trace=False, inject=lambda dyn: None,
                    order=True)


class TestResumedRuns:
    @settings(max_examples=15, deadline=None)
    @given(profiles, program_seeds,
           st.lists(st.tuples(st.floats(0.0, 1.05), st.integers(0, 31)),
                    min_size=1, max_size=3),
           st.integers(0, 2**16))
    def test_generated_programs(self, profile, seed, strikes, plan_seed):
        program = generated(profile, seed)
        budget, golden, length = golden_of(program)
        ordinals = sorted({int(where * length) for where, _ in strikes})
        plans = [tuple(zip(ordinals, (bit for _, bit in strikes))),
                 BernoulliPlan(2e-3, plan_seed, budget)]
        cache, reference = BlockCache(program), Interpreted(program)
        for plan in plans:
            assert (injected(program, plan, budget, golden, cache)
                    == injected(program, plan, budget, golden, reference))

    def test_quicksort_plans(self):
        """Corrupted links and addresses reach ``jr``: bad targets crash,
        and computed targets enter blocks off their leaders."""
        program = quicksort()
        budget, golden, length = golden_of(program)
        cache, reference = BlockCache(program), Interpreted(program)
        outcomes = set()
        for ordinal in range(0, length, 23):
            for bit in (0, 1, 5, 31):
                plan = ((ordinal, bit),)
                got = injected(program, plan, budget, golden, cache)
                assert got == injected(program, plan, budget, golden,
                                       reference)
                outcomes.add(got[0][0] if isinstance(got[0][0], type)
                             else "converged" if got[0][5] else "ran")
        assert {EmulatorError, MisalignedAccessError, "converged"} <= outcomes


#: A misaligned load in the middle of a block that also stores.
MISALIGNED = """
.data
buf: .space 16
.text
    la   r2, buf
    li   r1, 40
loop:
    addi r3, r3, 1
    sw   r3, 0(r2)
    add  r4, r2, r3
    lw   r5, 0(r4)
    subi r1, r1, 1
    bnez r1, loop
    halt
"""

#: A return through a register that holds a data value.
BAD_JR = """
    li   r1, 10
loop:
    subi r1, r1, 1
    bnez r1, loop
    li   r31, 4098
    addi r2, r2, 1
    jr   r31
    halt
"""

#: Falls off the end of the text segment.
NO_HALT = """
    li  r1, 3
    addi r1, r1, 1
"""


class TestCrashesInsideBlocks:
    @pytest.mark.parametrize("source, error, message", [
        (MISALIGNED, MisalignedAccessError, "load_word at"),
        (BAD_JR, EmulatorError, "jr to bad address 0x1002"),
        (NO_HALT, EmulatorError, "outside text segment: index 2"),
    ])
    @pytest.mark.parametrize("checkpoints", [False, True])
    def test_same_error(self, source, error, message, checkpoints):
        program = assemble(source)
        blocks, reference = both(program, collect_trace=False,
                                 checkpoints=checkpoints)
        assert blocks == reference
        assert blocks[0] is error and message in blocks[1]

    def test_budget_stops_before_the_crash(self):
        program = assemble(BAD_JR)
        crashed = []
        for budget in range(1, 40):
            blocks, reference = both(program, collect_trace=False,
                                     max_instructions=budget)
            assert blocks == reference
            crashed.append(blocks[0] is EmulatorError)
        assert crashed == sorted(crashed) and not crashed[0] and crashed[-1]


class TestBlockCache:
    def test_serves_only_its_program(self):
        with pytest.raises(ValueError):
            emulate(quicksort(), blocks=BlockCache(quicksort()))

    def test_pickles_without_translations(self):
        import pickle

        program = quicksort()
        cache = BlockCache(program)
        emulate(program, collect_trace=False, blocks=cache)
        assert any(cache.table)
        copy = pickle.loads(pickle.dumps(cache))
        assert copy.table is None and copy.key == cache.key
        run = emulate(copy.program, collect_trace=False, blocks=copy)
        assert run.output == emulate(program).output
        # Copies with one key share one cache in the process that
        # unpickles them; another cache's copy gets its own.
        assert pickle.loads(pickle.dumps(cache)) is copy
        other = pickle.loads(pickle.dumps(BlockCache(program)))
        assert other is not copy and other.key != cache.key

    def test_op_without_semantics_raises_when_it_runs(self, monkeypatch):
        from repro.isa import semantics
        from repro.isa.instructions import Op

        monkeypatch.delitem(semantics._COMPUTE, Op.MUL)
        source = """
            li   r1, 3
            li   r2, {}
            beq  r1, r2, skip
            mul  r3, r1, r2
        skip:
            putint r3
            halt
        """
        skipped = assemble(source.format(3))
        assert emulate(skipped, collect_trace=False).output == [0]
        with pytest.raises(KeyError):
            emulate(assemble(source.format(4)), collect_trace=False)


def test_campaigns_translate_each_block_once(monkeypatch):
    """A campaign shares one cache between its golden run and every
    injected run: no block is translated twice within a campaign."""
    translated = []
    translate = emulator._translate

    def counting(decoded, leader, length):
        translated.append(leader)
        return translate(decoded, leader, length)

    monkeypatch.setattr(emulator, "_translate", counting)
    program = generate_program(PROFILES["default"], n_dynamic=3000, seed=3)
    budget = 4 * emulate(program, collect_trace=False).instructions
    for run in (
        lambda: run_campaign(program, runs=12, rate=2e-3,
                             max_instructions=budget, jobs=1),
        lambda: run_site_campaign(program, runs=12, max_instructions=budget,
                                  jobs=1, use_analysis_cache=False),
    ):
        translated.clear()
        run()
        assert translated
        assert len(translated) == len(set(translated))
