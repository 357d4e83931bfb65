"""The R-stream Queue entry is the pipeline's own entry.

The move into the queue reads each record's P comparable, and R
completion recomputes its R comparable, through the comparator binding
of the record's opcode, bound once at import.  Those
reads must equal :func:`~repro.reese.comparator.p_value` and
:func:`~repro.reese.comparator.reexecute` exactly (type, value and float
bits) on every record.  And the pipeline itself, with the observers
that keep no reference to it attached, must stay free of reference
cycles, so a finished run is freed by reference counting.
"""

import gc
import weakref

import pytest

from repro.arch import emulate
from repro.isa import assemble
from repro.isa.instructions import Op
from repro.reese import comparator
from repro.reese.comparator import p_value, reexecute
from repro.uarch import (
    CallbackSink, EventTracer, ObserveConfig, Pipeline, build_observability,
    starting_config,
)
from repro.workloads.suite import BENCHMARK_ORDER, trace_for

from tests.arch.test_trace_pin import EVERY_CATEGORY


def _runs():
    runs = [(name, *trace_for(name, 2000)) for name in BENCHMARK_ORDER]
    program = assemble(EVERY_CATEGORY)
    runs.append(("every-category", program, emulate(program).trace))
    return runs


RUNS = _runs()


class _Reads:
    """Observer keeping each queue entry's P and R comparables."""

    def __init__(self):
        self.p = {}
        self.r = {}

    def on_rqueue(self, cycle, entry):
        self.p[entry.trace_seq] = entry.p_value

    def on_r_complete(self, cycle, entry):
        self.r[entry.trace_seq] = entry.r_value


@pytest.mark.parametrize("name,program,trace", RUNS,
                         ids=[run[0] for run in RUNS])
def test_bound_reads_equal_the_comparator(name, program, trace):
    reads = _Reads()
    stats = Pipeline(program, trace, starting_config().with_reese(),
                     observers=[reads]).run()
    assert stats.committed == len(trace)
    assert sorted(reads.p) == list(range(len(trace)))
    for dyn in trace:
        # repr tells 1 from True, -0.0 from 0.0 and keeps NaN equal.
        assert repr(reads.p[dyn.seq]) == repr(p_value(dyn)), dyn
        if dyn.seq in reads.r:
            assert repr(reads.r[dyn.seq]) == repr(reexecute(dyn)), dyn
    # Only the unit-less nop and halt skip re-execution.
    skipped = {dyn.op for dyn in trace if dyn.seq not in reads.r}
    assert skipped <= {Op.NOP, Op.HALT}


def test_every_category_binds_each_kind():
    program = assemble(EVERY_CATEGORY)
    kinds = {comparator.BINDINGS[inst.op][1] for inst in program.code}
    assert kinds == {comparator.CMP_LOAD, comparator.CMP_COMPUTE,
                     comparator.CMP_BRANCH, comparator.CMP_CALL}


def test_wrong_path_regs_are_bound_once_per_program():
    _name, program, trace = RUNS[0]
    first = Pipeline(program, trace, starting_config())
    second = Pipeline(program, trace, starting_config().with_reese())
    assert first._wrong_path_regs is second._wrong_path_regs
    assert first._wrong_path_regs == [
        (inst.srcs(), inst.dst()) for inst in program.code
    ]


CONFIGS = {
    "baseline": starting_config(),
    "reese": starting_config().with_reese(),
    "dispatch_dup": starting_config().with_dispatch_dup(),
}


def _freed(config, observers=()):
    """Whether a finished run's pipeline dies with the collector off."""
    _name, program, trace = RUNS[0]
    gc.collect()
    gc.disable()
    try:
        pipe = Pipeline(program, trace, config, observers=observers)
        pipe.run()
        ref = weakref.ref(pipe)
        del pipe
        return ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("config", list(CONFIGS.values()), ids=list(CONFIGS))
def test_finished_pipeline_is_freed_by_reference_counting(config):
    assert _freed(config)


@pytest.mark.parametrize("config", list(CONFIGS.values()), ids=list(CONFIGS))
def test_observed_pipeline_is_freed_by_reference_counting(config):
    """Every observer, the invariant checker included, leaves a
    finished run to reference counting."""
    observers = build_observability(
        ObserveConfig(metrics=True, check_invariants=True, profile=True)
    )
    observers.append(EventTracer(CallbackSink([].append)))
    assert _freed(config, observers)
