"""The trace record layout: one shared static record per instruction.

A :class:`DynInst` holds only the values of its one execution; the
facts of its static instruction live in one immutable
:class:`StaticInst` per instruction of the program, which every record
of the instruction, the emulator's decode and the pipeline's fetch
share.  A record's sequence number is its position in its trace.
"""

import pickle
import tracemalloc

import pytest

from repro.arch import emulate
from repro.arch.trace import DynInst, StaticInst, static_records
from repro.uarch import Pipeline, starting_config
from repro.workloads import suite

#: Traced bytes per record of the six proxies' traces at scale 5000,
#: program and static records included (the layout measures about 152;
#: records that carry their static facts and a ``seq`` measure 279).
MAX_BYTES_PER_RECORD = 170


@pytest.fixture(scope="module")
def li():
    return suite.trace_for("li", 2000)


def test_records_hold_no_static_fact_and_no_seq():
    assert "seq" not in DynInst.__slots__
    assert not set(DynInst.__slots__) & set(StaticInst.__slots__)


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
    Pipeline(program, trace, config, observers=[Fetches()]).run()
    assert fetched[True], "expected wrong-path fetch"
    for entry in fetched[True]:
        assert entry.dyn is None and entry.trace_seq == -1
        assert entry.static is statics[entry.static.static_index]
    for entry in fetched[False]:
        assert entry.static is entry.dyn.static
        assert trace[entry.trace_seq] is entry.dyn


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
