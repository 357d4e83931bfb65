"""Trace pins: every fact of every :class:`DynInst` the emulator builds.

Each pin is the sha256 of the records of a set of traces, one line per
record holding every field in :data:`FIELDS` order (enums by name, every
other value by ``repr``, so ``1``, ``1.0`` and ``True`` differ): the
record's own values, its static instruction's facts read through
``dyn.static``, and ``seq``, the record's index in its trace.  The sets
are the six proxies at scale 1000, one generated program and one
program of every execution category.  A speed change to trace building
must leave the pins unchanged; a deliberate change to the trace re-pins
them with::

    PYTHONPATH=src python -m tests.arch.test_trace_pin

The other tests check each record's static facts against its
:class:`~repro.isa.instructions.Instruction`, and that the records of
one static instruction share one :class:`StaticInst`.
"""

import hashlib
from collections import defaultdict

import pytest

from repro.arch import emulate
from repro.arch.trace import (DynCompute, DynControl, DynInst, DynLoad,
                              DynStore, StaticInst)
from repro.isa import INST_SIZE, TEXT_BASE, assemble
from repro.isa.instructions import OPINFO, FUClass, Op
from repro.workloads.generator import PROFILES, generate_program
from repro.workloads.suite import BENCHMARKS, load

SCALE = 1000

FIELDS = ("seq", "static_index", "pc", "op", "fu", "dst", "srcs",
          "is_load", "is_store", "is_branch", "is_cond_branch", "a", "b",
          "imm", "result", "ea", "store_value", "taken", "target_index",
          "next_index")

#: The fields of :data:`FIELDS` read from ``dyn.static``.
STATIC_FIELDS = frozenset(StaticInst.__slots__) & set(FIELDS)

#: Every execution category, and the ops the proxies leave out: ``nop``,
#: byte loads and stores, FP, ``jalr`` and ``putch``.
EVERY_CATEGORY = """
    .data
    vals: .word 7, -9, 300
    .text
    main:
        nop
        la    r1, vals
        lw    r2, 0(r1)
        lw    r3, 4(r1)
        lb    r4, 4(r1)
        sb    r2, 8(r1)
        lbu   r5, 8(r1)
        div   r6, r2, r3
        rem   r7, r2, r3
        slt   r8, r3, r2
        sra   r9, r3, r2
        mulhu r10, r3, r3
        cvtif f1, r2
        cvtif f2, r3
        fsub  f3, f1, f2
        fdiv  f4, f3, f1
        fsqrt f5, f1
        fneg  f6, f5
        fcmplt r11, f6, f5
        swf   f4, 0(r1)
        lwf   f7, 0(r1)
        cvtfi r12, f7
        la    r13, target
        jalr  r14, r13
        bltz  r3, after
        nop
    after:
        bgez  r2, done
        nop
    target:
        putch r2
        jr    r14
    done:
        putint r12
        halt
"""

PINS = {
    "proxies": (
        "6f425037b0269d05433289c7ceac983ad0031ee1b6039148efb4cce843844009"
    ),
    "generated": (
        "8c10ed92496bdc86eaca2acbe17fdb15650a144f150e838c74a5cc9d63c1b25f"
    ),
    "every_category": (
        "c09b59889fdf990f1bf5aa6efa01f8f3f44088e8c8c88e9989ee98fcdf50142a"
    ),
}


def _programs(name):
    if name == "proxies":
        return [load(bench, SCALE) for bench in BENCHMARKS]
    if name == "generated":
        return [generate_program(PROFILES["branchy"], 3000, seed=11)]
    return [assemble(EVERY_CATEGORY)]


@pytest.fixture(scope="module", params=list(PINS))
def traced(request):
    """``(name, [(program, trace), ...])`` for one pinned set."""
    return request.param, [(program, emulate(program).trace)
                           for program in _programs(request.param)]


def _row(seq, dyn):
    """The :data:`FIELDS` of ``trace[seq]``."""
    return [seq if name == "seq"
            else getattr(dyn.static if name in STATIC_FIELDS else dyn, name)
            for name in FIELDS]


def _digest(runs):
    digest = hashlib.sha256()
    for _program, trace in runs:
        for seq, dyn in enumerate(trace):
            row = _row(seq, dyn)
            row[3], row[4] = row[3].name, row[4].name
            digest.update(repr(row).encode() + b"\n")
    return digest.hexdigest()


#: The record family: the base class and one class per kind.
RECORD_CLASSES = (DynInst, DynCompute, DynLoad, DynStore, DynControl)


def test_every_slot_is_hashed():
    # ``is_halt`` is a function of the hashed ``op``.
    slots = {name for cls in RECORD_CLASSES for name in cls.__slots__}
    assert sorted(FIELDS) == sorted(
        {"seq"} | slots - {"static"}
        | set(StaticInst.__slots__) - {"is_halt"})


def test_trace_matches_pin(traced):
    name, runs = traced
    assert _digest(runs) == PINS[name]


def test_static_fields_match_the_instruction(traced):
    _name, runs = traced
    for program, trace in runs:
        for dyn in trace:
            static = dyn.static
            inst = program.code[static.static_index]
            info = OPINFO[inst.op]
            assert static.pc == TEXT_BASE + static.static_index * INST_SIZE
            assert static.op is inst.op and static.fu is info.fu
            assert static.imm == inst.imm
            assert static.dst == inst.dst() and static.srcs == inst.srcs()
            assert (static.is_load, static.is_store, static.is_branch,
                    static.is_cond_branch, static.is_halt) == (
                        info.is_load, info.is_store, info.is_branch,
                        info.is_cond_branch, info.is_halt)


def test_records_of_one_instruction_share_its_static_objects(traced):
    _name, runs = traced
    for _program, trace in runs:
        shared = defaultdict(set)
        for dyn in trace:
            shared[dyn.static.static_index].add(id(dyn.static))
        assert all(len(ids) == 1 for ids in shared.values())


def test_no_argument_record_keeps_its_defaults():
    defaults = [
        0, 0, 0, Op.NOP, FUClass.NONE, -1, (), False, False, False, False,
        0, 0, 0, None, None, None, False, -1, -1]
    assert _row(0, DynControl()) == defaults
    # A class without a successor slot supplies the fall-through of the
    # default static record (index 0).
    for cls in (DynInst, DynCompute, DynLoad, DynStore):
        assert _row(0, cls()) == defaults[:-1] + [1]


if __name__ == "__main__":
    for set_name in PINS:
        runs = [(program, emulate(program).trace)
                for program in _programs(set_name)]
        print(f"    {set_name!r}: {_digest(runs)!r},")
