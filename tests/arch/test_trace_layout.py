"""The trace record layout: one shared static record per instruction,
one record class per instruction kind, and traces packed into columns
(``tests/arch/test_packed_trace.py`` holds the round trip).

A :class:`DynInst` holds only the values of its one execution; the
facts of its static instruction live in one immutable
:class:`StaticInst` per instruction of the program, which every record
of the instruction, the emulator's decode and the pipeline's fetch
share.  A record's sequence number is its position in its trace.  Each
kind's record class carries slots for the values that kind sets only;
the base class supplies the rest.
"""

import pickle
import tracemalloc

import pytest

from repro.arch import emulate
from repro.arch.trace import (DynCompute, DynControl, DynInst, DynLoad,
                              DynStore, PackedTrace, StaticInst,
                              static_records)
from repro.isa import assemble
from repro.isa.instructions import OPINFO, Op
from repro.reese.faults import EnvironmentalFaultModel, corrupt_instruction
from repro.uarch import Pipeline, starting_config
from repro.workloads import suite
from tests.arch.test_trace_pin import EVERY_CATEGORY

#: Traced bytes per record of the six proxies' traces at scale 5000,
#: program and static records included.  Packed 4-byte columns measure
#: about 36 (20 of them the columns); a list of records, one class per
#: kind, measured 117, one record class with every kind's slots 152, and
#: records that also carried their static facts and a ``seq`` 279.
MAX_BYTES_PER_RECORD = 40

#: The slots each record class adds to its base, and what the old
#: one-class layout stored for a value a kind never sets (the successor
#: aside: that was the fall-through index).
OWN_SLOTS = {
    DynInst: {"static", "a", "b"},
    DynCompute: {"result"},
    DynLoad: {"result", "ea"},
    DynStore: {"ea", "store_value"},
    DynControl: {"next_index", "result", "taken", "target_index"},
}
UNSET = {"result": None, "ea": None, "store_value": None, "taken": False,
         "target_index": -1}
VALUES = set(UNSET) | {"next_index"}


@pytest.fixture(scope="module")
def li():
    return suite.trace_for("li", 2000)


@pytest.fixture(scope="module")
def traces():
    """The six proxies' traces at scale 1000 and one trace of every
    execution category."""
    runs = [suite.trace_for(name, 1000)[1]
            for name in suite.BENCHMARK_ORDER]
    return runs + [emulate(assemble(EVERY_CATEGORY)).trace]


def record_class(static):
    """The record class the emulator builds for ``static``'s op."""
    info = OPINFO[static.op]
    if info.is_load:
        return DynLoad
    if info.is_store:
        return DynStore
    if info.is_branch or info.is_halt:
        return DynControl
    if static.op in (Op.NOP, Op.PUTINT, Op.PUTCH):
        return DynInst
    return DynCompute


def test_each_kind_has_its_own_record_class(traces):
    for trace in traces:
        for dyn in trace:
            assert type(dyn) is record_class(dyn.static)
    for cls, own in OWN_SLOTS.items():
        assert set(cls.__slots__) == own
        assert cls is DynInst or cls.__bases__ == (DynInst,)


def test_no_record_class_has_a_slot_its_kind_never_sets(traces):
    # Every slot a kind adds holds, in some record, a value other than
    # the one its base class supplies (an unset slot counts as that).
    changed = {cls: set() for cls in OWN_SLOTS if cls is not DynInst}
    for trace in traces:
        for dyn in trace:
            cls = type(dyn)
            if cls is DynInst:
                continue
            base = DynInst(dyn.static)
            for name in cls.__slots__:
                supplied = getattr(base, name)
                if getattr(dyn, name, supplied) != supplied:
                    changed[cls].add(name)
    assert changed == {cls: set(cls.__slots__) for cls in changed}


def test_class_supplied_values_are_the_old_stored_values(traces):
    for trace in traces:
        for seq, dyn in enumerate(trace):
            supplied = VALUES - set(type(dyn).__slots__)
            for name in supplied - {"next_index"}:
                assert getattr(dyn, name) == UNSET[name], (seq, name)
                assert type(getattr(dyn, name)) is type(UNSET[name])
            # The old layout stored the index the emulator went on to.
            if seq + 1 < len(trace):
                assert dyn.next_index == trace[seq + 1].static.static_index
            else:
                assert dyn.static.is_halt
                assert dyn.next_index == dyn.static.static_index


def test_class_supplied_values_cannot_be_written(traces):
    by_class = {type(dyn): dyn for trace in traces for dyn in trace}
    assert set(by_class) == set(OWN_SLOTS)
    for cls, dyn in by_class.items():
        for name in VALUES - set(cls.__slots__):
            with pytest.raises(AttributeError):
                setattr(dyn, name, getattr(dyn, name))


def test_corruption_writes_only_the_kinds_own_values():
    trace = emulate(assemble(EVERY_CATEGORY)).trace
    first = {}
    for dyn in trace:
        first.setdefault(dyn.static.op, dyn)
    for op, name in ((Op.SB, "store_value"), (Op.SWF, "store_value"),
                     (Op.BGEZ, "taken"), (Op.DIV, "result"),
                     (Op.FSUB, "result"), (Op.LW, "result"),
                     (Op.JALR, "result")):
        dyn = first[op]
        before = getattr(dyn, name)
        assert corrupt_instruction(dyn, 3), op
        assert getattr(dyn, name) != before, op
    jal = emulate(assemble("""
        main:
            jal  sub
            j    done
        sub:
            jr   r31
        done:
            halt
    """)).trace.records()
    assert jal[0].static.op is Op.JAL
    link = jal[0].result
    assert corrupt_instruction(jal[0], 0) and jal[0].result == link ^ 1
    untouched = [first[Op.PUTINT], first[Op.PUTCH], first[Op.NOP],
                 jal[2]]
    assert untouched[-1].static.op is Op.J
    for dyn in untouched:
        before = [getattr(dyn, name) for name in VALUES]
        assert not corrupt_instruction(dyn, 3)
        assert [getattr(dyn, name) for name in VALUES] == before


def test_records_hold_no_static_fact_and_no_seq():
    for cls in OWN_SLOTS:
        assert "seq" not in cls.__slots__
        assert not set(cls.__slots__) & set(StaticInst.__slots__)


def test_records_of_one_instruction_share_one_static_record(li):
    program, trace = li
    statics = static_records(program)
    assert static_records(program) is statics  # built once per program
    assert [static.static_index for static in statics] == list(
        range(len(program.code)))
    assert all(dyn.static is statics[dyn.static.static_index]
               for dyn in trace)
    assert emulate(program).trace[0].static is trace[0].static


def test_static_record_is_immutable(li):
    program, _trace = li
    static = static_records(program)[0]
    for name in StaticInst.__slots__:
        with pytest.raises(AttributeError):
            setattr(static, name, 0)
    copy = pickle.loads(pickle.dumps(static))
    assert [getattr(copy, name) for name in StaticInst.__slots__] == [
        getattr(static, name) for name in StaticInst.__slots__]


def test_pipeline_entries_share_the_static_records(li):
    program, trace = li
    statics = static_records(program)
    fetched = {True: [], False: []}

    class Fetches:
        def on_fetch(self, cycle, entry):
            fetched[entry.wrong_path].append(entry)

    config = starting_config().with_reese()
    pipe = Pipeline(program, trace, config, observers=[Fetches()])
    pipe.run()
    assert fetched[True], "expected wrong-path fetch"
    for entry in fetched[True]:
        assert entry.dyn is None and entry.trace_seq == -1
        assert entry.static is statics[entry.static.static_index]
    for entry in fetched[False]:
        # Fetch builds each record from the packed trace: a new record
        # equal to the trace's, on the program's one static record.
        assert entry.static is entry.dyn.static
        assert entry.dyn.static is statics[entry.static.static_index]
        assert same_slots(entry.dyn, trace[entry.trace_seq])


def same_slots(mine, theirs):
    """Whether two records agree slot for slot, type for type."""
    return type(mine) is type(theirs) and all(
        type(getattr(mine, name)) is type(getattr(theirs, name))
        and getattr(mine, name) == getattr(theirs, name)
        for name in VALUES | {"static", "a", "b"})


def test_pipeline_never_materializes_a_packed_trace(li, monkeypatch):
    """A run on a packed trace fetches one record at a time and gives
    the Stats of a run on the materialized records, faulted REESE runs
    (which refetch after each recovery) included."""
    program, trace = li
    records = trace.records()

    def refuse(*_args, **_kwargs):
        raise AssertionError("a pipeline materialized its packed trace")

    monkeypatch.setattr(PackedTrace, "records", refuse)
    config = starting_config().with_reese()
    for faulted in (False, True):
        runs = []
        for run_trace in (trace, records):
            fault = (EnvironmentalFaultModel(rate=2e-3, duration=2, seed=5)
                     if faulted else None)
            pipe = Pipeline(program, run_trace, config, fault_model=fault,
                            warm=True)
            runs.append(pipe.run().state_dict())
            assert pipe.trace is run_trace
        assert runs[0] == runs[1]
    assert runs[0]["recoveries"] > 0


def test_trace_bytes_per_record():
    suite.trace_for("gcc", 300)  # load every module trace building uses
    suite.clear_trace_cache()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        traces = [suite.trace_for(name, 5000)[1]
                  for name in suite.BENCHMARK_ORDER]
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        suite.clear_trace_cache()
    records = sum(map(len, traces))
    assert grown / records <= MAX_BYTES_PER_RECORD, (
        f"{grown / records:.1f} traced bytes per record")
