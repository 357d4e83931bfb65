"""Packed traces: the columns rebuild every record the emulator builds.

The emulator packs a trace into 32-bit columns and keeps whole only the
records the columns cannot rebuild (the escape map).  These tests hold
the round trip to the emulator's own records, slot for slot and type for
type: over generated programs (an FP-heavy profile among them, whose
float values escape), over a run whose fault hook corrupts records, and
for lists of records packed by ``PackedTrace.from_records``.  They also
check the whole-trace passes, which read the columns, against the
record loops they replaced.
"""

import pickle
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import EmulatorError, MisalignedAccessError, emulate
from repro.arch.trace import (DynCompute, DynControl, DynInst, DynLoad,
                              DynStore, PackedTrace, StaticInst, packed)
from repro.isa import assemble
from repro.isa.instructions import Op
from repro.memhier.hierarchy import MemoryHierarchy
from repro.reese.faults import corrupt_instruction
from repro.uarch import starting_config
from repro.uarch.pipeline import WarmState, warm_caches_over
from repro.uarch.sampling import mispredict_profile
from repro.workloads import analyze_trace, mix_report
from repro.workloads.generator import PROFILES, generate_program
from tests.arch.test_trace_pin import EVERY_CATEGORY

#: Every value slot of a record, the static record aside.
SLOTS = ("a", "b", "result", "ea", "store_value", "taken", "target_index",
         "next_index")

#: The values each record class keeps in its columns besides ``a`` and
#: ``b``; a control transfer's outcome is a bool, and its result is a
#: 0/1 outcome, a link or ``None``, all derived.
OWN = {DynInst: (), DynCompute: ("result",), DynLoad: ("result", "ea"),
       DynStore: ("ea", "store_value"), DynControl: ("target_index",)}


def key(value):
    """A value compared bit for bit: type, and a float's bit pattern
    (so ``-0.0`` differs from ``0.0`` and a NaN equals itself)."""
    if type(value) is float:
        return float, struct.pack("<d", value)
    return type(value), value


def slots(dyn):
    return (type(dyn), dyn.static, *(key(getattr(dyn, name))
                                     for name in SLOTS))


def fits(dyn):
    """Whether the columns hold ``dyn``'s values as they are: ints (not
    bools) in the 32-bit signed range."""
    values = [dyn.a, dyn.b] + [getattr(dyn, name) for name in OWN[type(dyn)]]
    return all(type(value) is int and -2**31 <= value < 2**31
               for value in values)


def emulated_records(program, inject=None, **kwargs):
    """``(trace, records)``: a traced run with a hook, and the record of
    every eligible instruction (all but ``nop`` and ``halt``) as the
    emulator built it and the hook (``inject``, if given) left it."""
    seen = []

    def hook(dyn):
        if inject is not None:
            inject(dyn)
        seen.append(dyn)

    return emulate(program, inject=hook, **kwargs).trace, seen


def record_loop_profile(program, records, config):
    """The mispredict profile as the record loop computed it."""
    predict_next = WarmState(program, config).predict_next
    profile, acc = [0], 0
    for dyn in records:
        static = dyn.static
        if static.is_branch and predict_next(
                static, dyn.taken, dyn.target_index) != dyn.next_index:
            acc += 1
        profile.append(acc)
    return profile


def eligible_positions(trace):
    statics = trace.statics
    return [pos for pos, idx in enumerate(trace.index)
            if not (statics[idx].is_halt or statics[idx].op.name == "NOP")]


profiles = st.sampled_from(sorted(PROFILES))
seeds = st.integers(min_value=0, max_value=10_000)


class TestRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(profiles, seeds)
    def test_generated_programs(self, profile, seed):
        program = generate_program(PROFILES[profile], n_dynamic=900,
                                   seed=seed)
        fast = emulate(program).trace
        hooked, built = emulated_records(program)
        # Each record the emulator built equals its materialized view.
        eligible = eligible_positions(fast)
        assert len(eligible) == len(built)
        views = fast.records()
        assert [slots(views[pos]) for pos in eligible] == [
            slots(dyn) for dyn in built]
        # The fast path and the record-building path pack alike, and
        # escape exactly the records the columns cannot hold.
        assert [slots(dyn) for dyn in hooked.records()] == [
            slots(dyn) for dyn in views]
        assert sorted(fast.escapes) == sorted(hooked.escapes) == [
            pos for pos, dyn in enumerate(views) if not fits(dyn)]
        if profile == "fp_heavy":
            assert fast.escapes
        # A list of records packs to the same columns and escapes.
        repacked = PackedTrace.from_records(views, fast.statics)
        for column in ("index", "a", "b", "value", "addr"):
            assert getattr(repacked, column) == getattr(fast, column)
        assert sorted(repacked.escapes) == sorted(fast.escapes)

    def test_every_category(self):
        program = assemble(EVERY_CATEGORY)
        trace = emulate(program).trace
        views = trace.records()
        _, built = emulated_records(program)
        eligible = eligible_positions(trace)
        assert [slots(views[pos]) for pos in eligible] == [
            slots(dyn) for dyn in built]
        assert sorted(trace.escapes) == [
            pos for pos, dyn in enumerate(views) if not fits(dyn)]
        assert {type(views[pos]) for pos in trace.escapes} == {
            DynCompute, DynLoad, DynStore}

    @settings(max_examples=15, deadline=None)
    @given(profiles, seeds, st.integers(min_value=2, max_value=9))
    def test_injected_run(self, profile, seed, every):
        # Corrupt every ``every``-th eligible instruction in a traced run:
        # the trace keeps the corrupted records, which the derivations
        # no longer give back (a flipped branch keeps its old result),
        # so they escape, and still materialize exactly.
        program = generate_program(PROFILES[profile], n_dynamic=900,
                                   seed=seed)
        count = iter(range(10**9))

        def corrupt(dyn):
            if next(count) % every == 0:
                corrupt_instruction(dyn, 7)

        try:
            trace, built = emulated_records(program, corrupt,
                                            max_instructions=5000)
        except (EmulatorError, MisalignedAccessError):
            return  # a corrupted run may fault
        views = trace.records()
        eligible = eligible_positions(trace)
        assert [slots(views[pos]) for pos in eligible] == [
            slots(dyn) for dyn in built]
        flipped = [pos for pos, dyn in zip(eligible, built)
                   if dyn.static.is_cond_branch
                   and dyn.result != int(dyn.taken)]
        assert set(flipped) <= set(trace.escapes)
        # Every view's successor is where the run went, and the
        # mispredict profile (which reads the columns) sees it.
        assert [dyn.next_index for dyn in views[:-1]] == [
            dyn.static.static_index for dyn in views[1:]]
        config = starting_config()
        assert mispredict_profile(program, trace, config) == (
            record_loop_profile(program, views, config))


class TestPackedTrace:
    @pytest.fixture(scope="class")
    def fp_trace(self):
        return emulate(generate_program(PROFILES["fp_heavy"], 1500,
                                        seed=3)).trace

    def test_columns_are_4_byte_arrays(self, fp_trace):
        for column in ("index", "a", "b", "value", "addr"):
            array = getattr(fp_trace, column)
            assert array.typecode == "i" and array.itemsize == 4
            assert len(array) == len(fp_trace)

    def test_views_are_new_records(self, fp_trace):
        pos = next(iter(fp_trace.escapes))
        first, second = fp_trace[pos], fp_trace[pos]
        assert first is not second
        assert first is not fp_trace.escapes[pos]
        assert slots(first) == slots(second)
        first.a = 12345  # a view's write leaves the trace as it was
        assert slots(fp_trace[pos]) == slots(second)

    def test_indexing_and_slicing(self, fp_trace):
        views = fp_trace.records()
        assert slots(fp_trace[-1]) == slots(views[-1])
        with pytest.raises(IndexError):
            fp_trace[len(fp_trace)]
        part = fp_trace[100:300]
        assert [slots(dyn) for dyn in part] == [
            slots(dyn) for dyn in views[100:300]]
        assert [slots(dyn) for dyn in fp_trace.records(100, 300)] == [
            slots(dyn) for dyn in views[100:300]]
        assert len(fp_trace[300:100]) == 0
        with pytest.raises(ValueError):
            fp_trace[::2]

    def test_rows_give_escaped_records_values(self, fp_trace):
        views = fp_trace.records()
        for start, stop in ((0, None), (37, 811)):
            rows = list(fp_trace.rows(start, stop))
            window = views[start:stop]
            assert [idx for idx, _, _ in rows] == [
                dyn.static.static_index for dyn in window]
            for (_, value, addr), dyn in zip(rows, window):
                if isinstance(dyn, (DynLoad, DynStore)):
                    assert key(addr) == key(dyn.ea)
                if isinstance(dyn, DynControl):
                    assert bool(value) == dyn.taken
                    assert addr == dyn.target_index

    def test_pickles(self, fp_trace):
        # Static records pickle by value, so compare through their index.
        def values(dyn):
            return (dyn.static.static_index, *slots(dyn)[:1],
                    *slots(dyn)[2:])

        copy = pickle.loads(pickle.dumps(fp_trace))
        assert [values(dyn) for dyn in copy] == [
            values(dyn) for dyn in fp_trace]

    def test_records_of_another_static_record_escape(self):
        static = StaticInst(0, 0x1000, Op.ADD)
        other = StaticInst(0, 0x1000, static.op)
        records = [DynCompute(static, 1, 2, 3), DynCompute(other, 1, 2, 3),
                   DynCompute(static, 1, True, 3),
                   DynCompute(static, 1, 2, 2**31)]
        trace = PackedTrace.from_records(records)
        assert sorted(trace.escapes) == [1, 2, 3]
        assert [slots(dyn) for dyn in trace] == [slots(dyn)
                                                 for dyn in records]

    def test_packed_is_the_identity_on_a_packed_trace(self, fp_trace):
        assert packed(fp_trace) is fp_trace


class TestPassesReadTheColumns:
    """Each whole-trace pass over the columns gives what its record loop
    gave, on traces with and without escapes."""

    @pytest.fixture(scope="class", params=["fp_heavy", "branchy"])
    def run(self, request):
        program = generate_program(PROFILES[request.param], 2500, seed=5)
        return program, emulate(program).trace

    def test_mispredict_profile(self, run):
        program, trace = run
        config = starting_config()
        expected = record_loop_profile(program, trace.records(), config)
        assert mispredict_profile(program, trace, config) == expected
        assert mispredict_profile(program, trace.records(), config) == expected

    def test_warm_caches(self, run):
        program, trace = run
        config = starting_config()
        shift = config.mem.l1i.line_size.bit_length() - 1
        expected = MemoryHierarchy(config.mem)
        last = -1
        for dyn in trace.records(200, 2000):
            pc = dyn.static.pc
            if pc >> shift != last:
                expected.ifetch(pc)
                last = pc >> shift
            if dyn.ea is not None:
                expected.daccess(dyn.ea, is_write=dyn.static.is_store)
        mem = MemoryHierarchy(config.mem)
        warm_caches_over(mem, trace, shift, 200, 2000)
        assert mem.stat_dict() == expected.stat_dict()

    def test_workload_analysis(self, run):
        _program, trace = run
        assert mix_report(trace) == mix_report(trace.records())
        profile = analyze_trace(trace)
        taken = sum(dyn.taken for dyn in trace if dyn.static.is_cond_branch)
        assert profile.branch.taken == taken
        lines = {dyn.ea // 32 for dyn in trace if dyn.ea is not None}
        assert profile.data_bytes_touched == 32 * len(lines)
