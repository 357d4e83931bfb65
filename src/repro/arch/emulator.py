"""In-order functional emulator — the architectural oracle.

The emulator executes a :class:`~repro.isa.program.Program` with exact
ISA semantics and produces

* the final architectural state (registers, memory, output channel), and
* optionally the **dynamic trace** that drives the cycle-level timing
  models: a :class:`~repro.arch.trace.PackedTrace`, whose 32-bit
  columns hold each retired instruction's values, and whose
  :class:`~repro.arch.trace.DynInst` records are views built for what
  a pipeline runs: one per fetch, or a window shared by several runs
  (see :mod:`repro.arch.trace`).

It is strictly in order: it is the reference against which both the
baseline and REESE timing models are validated (every timing simulation
must commit exactly the instructions of this trace, in this order), and
the substrate for architectural fault-injection campaigns (silent-data-
corruption studies on a machine *without* REESE).

Fault injection hooks: an ``inject`` callable, when provided, is invoked
with each :class:`DynInst` *after* its results are computed and *before*
they are committed architecturally.  To model a soft error the hook may
mutate the values its record's kind carries (see
:mod:`repro.arch.trace`): a compute op's or load's ``result``, a store's
``ea`` and ``store_value``, a control transfer's ``result``, ``taken``
and ``target_index``; the other values are the record class's own and
cannot be set.  The emulator then commits the corrupted values,
faithfully propagating the error through the remainder of the program.
A traced run with a hook builds the record of every instruction and
packs each into the trace after its hook ran, so the trace holds the
record as the hook left it; one whose values the columns cannot
rebuild (a flipped branch outcome leaves its old 0/1 result) is kept
whole in the trace's escape map.  A hookless traced stretch appends
column values, and builds a record only to escape it.

The hook sees every *eligible* instruction: every instruction except
``nop`` and ``halt``.  Eligible instructions are numbered from 0 in
execution order; these are their *ordinals*.  A fault campaign that
corrupts a few known ordinals passes them as an ascending ``schedule``.
The emulator then builds the :class:`DynInst` and calls the hook at
those ordinals only, and runs the hookless fast path everywhere else.
A scheduled run given a golden run's checkpoints resumes from the latest
one at or before its first ordinal, and once nothing is due stops as
``converged`` at the first later checkpoint its state matches exactly.
A golden run holds its memory once: each :data:`Checkpoint` keeps only
the words written since the one before it (the first keeps every word).
A resumed run rebuilds its checkpoint's whole memory by folding
checkpoints ``0..k`` (:func:`fold_words`), and keeps that fold as its
one running copy of the golden memory, advanced by each later
checkpoint's words as the convergence checks reach it.

Two engines run the instructions.  The interpreter steps one decoded
instruction at a time; it runs every stretch that records anything (a
trace, an armed step, per-instruction hooks).  A *hookless* untraced
stretch records nothing, and runs whole basic blocks, each compiled once
into one Python function by a :class:`BlockCache`, as long as the whole
block fits before the stretch's limit.  A block starts at a *leader*:
the program start, a branch or jump target, or the instruction after a
control transfer or ``halt``.  The interpreter runs the rest: a block
tail past the limit, and the straight-line run from a non-leader entry
(a checkpoint's resume point, a computed ``jr`` target) to the end of
its block.  Blocks call the semantic functions the interpreter binds,
and the bound :class:`~repro.arch.memory.Memory` methods, so both
engines retire the same instructions with the same results and raise
the same errors.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from collections import namedtuple
from functools import partial
from itertools import count
from struct import pack
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Union

from ..isa.instructions import INST_SIZE, Op, OPINFO
from ..isa.program import Program, STACK_BASE, TEXT_BASE
from ..isa.registers import NUM_REGS, REG_SP
from ..isa.semantics import (_BRANCH_TAKEN, _COMPUTE, branch_taken, compute,
                             to_i32)
from .memory import Memory
from .trace import DynInst, PackedTrace, record_maker, static_records

Value = Union[int, float]

# Internal execution categories, precomputed per static instruction.
_CAT_NOP = 0
_CAT_COMPUTE = 1
_CAT_LOAD = 2
_CAT_STORE = 3
_CAT_COND_BRANCH = 4
_CAT_JUMP = 5
_CAT_JUMP_REG = 6
_CAT_HALT = 7
_CAT_PUT = 8

#: Categories that end a basic block.
_BLOCK_ENDS = (_CAT_COND_BRANCH, _CAT_JUMP, _CAT_JUMP_REG, _CAT_HALT)

#: Retired instructions between two checkpoints of a golden run.
CHECKPOINT_INTERVAL = 256


class EmulatorError(Exception):
    """Raised when a program performs an illegal action (bad PC, etc.)."""


#: The state just before the instruction at retired position ``retired``;
#: ``regs`` and ``output`` are copies.  ``words`` holds the memory words
#: (raw, zero words kept) written since the previous checkpoint of the
#: run: every word for the first one, only the changed ones after it, so
#: :func:`fold_words` over checkpoints ``0..k`` gives checkpoint ``k``'s
#: whole memory.
Checkpoint = namedtuple("Checkpoint", "idx retired nops regs words output")


def fold_words(points: Iterable[Checkpoint],
               words: Optional[Dict[int, int]] = None) -> Dict[int, int]:
    """``words`` (a new dict if ``None``) advanced by each checkpoint's
    changed words, in order.  Memory never forgets a word, so folding a
    golden run's checkpoints ``0..k`` into a new dict rebuilds the whole
    memory at checkpoint ``k``, and folding ``k+1..j`` into that moves
    it on to checkpoint ``j``."""
    if words is None:
        words = {}
    for point in points:
        words.update(point.words)
    return words


def _resume_point(golden: Sequence[Checkpoint], due: int) -> Checkpoint:
    """The latest checkpoint at or before ordinal ``due`` (if due)."""
    ordinals = [point.retired - point.nops for point in golden]
    return golden[bisect_right(ordinals, due) - 1 if due >= 0 else -1]


def _same_state(point: Checkpoint, words: Dict[int, int], idx: int,
                nops: int, regs: List[Value], memory: Memory,
                output: List[int]) -> bool:
    """Whether a run's state equals ``point``, whose whole memory is
    ``words``, bit for bit: ``-0.0`` does not match ``0.0``, and a NaN
    matches only itself (the same object)."""
    return (idx == point.idx and nops == point.nops and regs == point.regs
            and output == point.output
            and memory.words() == words.items()
            and all(type(a) is type(b) and (type(a) is not float
                                            or pack("<d", a) == pack("<d", b))
                    for a, b in zip(regs, point.regs)))


class EmulationResult:
    """Outcome of one emulator run."""

    def __init__(
        self,
        program: Program,
        regs: List[Value],
        memory: Memory,
        output: List[int],
        trace: Optional[PackedTrace],
        halted: bool,
        instructions: int,
        checkpoints: Optional[List[Checkpoint]] = None,
        converged: bool = False,
        order: Optional[List[int]] = None,
    ) -> None:
        self.program = program
        self.regs = regs
        self.memory = memory
        self.output = output
        self.trace = trace
        #: True if the program reached ``halt`` (vs. hitting the instruction cap).
        self.halted = halted
        #: Retired position where the run stopped (absolute when resumed).
        self.instructions = instructions
        self.checkpoints = checkpoints  # recorded, if asked for
        self.converged = converged  # stopped on matching a golden checkpoint
        #: Static index of each eligible instruction, by ordinal (if asked).
        self.order = order


def _decode_program(program: Program):
    """Decode each static instruction once, for the hot loop.

    Returns one ``(cat, inst, fn, record)`` per instruction: its
    execution category, the instruction, its bound compute or branch
    semantics (an op without them raises ``KeyError`` when it runs), and
    ``record``, its :func:`~repro.arch.trace.record_maker`: the
    constructor of its kind's record class with the instruction's
    :class:`~repro.arch.trace.StaticInst` (:func:`static_records`)
    bound, so all records of one instruction share it.  A call passes
    this execution's ``(a, b, value, addr)`` column values.
    """
    decoded = []
    statics = static_records(program)
    for idx, inst in enumerate(program.code):
        info = OPINFO[inst.op]
        fn = None
        if info.is_halt:
            cat = _CAT_HALT
        elif inst.op in (Op.PUTINT, Op.PUTCH):
            cat = _CAT_PUT
        elif info.is_load:
            cat = _CAT_LOAD
        elif info.is_store:
            cat = _CAT_STORE
        elif info.is_cond_branch:
            cat = _CAT_COND_BRANCH
            fn = _BRANCH_TAKEN.get(inst.op) or partial(branch_taken, inst.op)
        elif inst.op in (Op.J, Op.JAL):
            cat = _CAT_JUMP
        elif inst.op in (Op.JR, Op.JALR):
            cat = _CAT_JUMP_REG
        elif inst.op is Op.NOP:
            cat = _CAT_NOP
        else:
            cat = _CAT_COMPUTE
            fn = _COMPUTE.get(inst.op) or partial(compute, inst.op)
        decoded.append((cat, inst, fn, record_maker(statics[idx])))
    return decoded


# ---------------------------------------------------------------------------
# Translated basic blocks.
# ---------------------------------------------------------------------------

_LOAD_CALLS = {Op.LW: "memory.load_word({})",
               Op.LB: "memory.load_byte({}, signed=True)",
               Op.LBU: "memory.load_byte({}, signed=False)",
               Op.LWF: "memory.load_float({})"}
_STORE_CALLS = {Op.SW: "memory.store_word({}, int({}))",
                Op.SB: "memory.store_byte({}, int({}))",
                Op.SWF: "memory.store_float({}, float({}))"}


def _translate(decoded, leader: int, length: int):
    """Compile the ``length`` instructions from ``leader`` into one block.

    Returns ``(run, length, nops, order)``: ``run(regs, memory, output)``
    executes the block and returns the next index (``None`` after
    ``halt``); ``order`` holds the static indices of its eligible
    instructions.  Each line is the interpreter's step for that
    instruction with its operands spelled out.
    """
    env = {"EmulatorError": EmulatorError, "to_i32": to_i32}
    lines = ["def run(regs, memory, output):"]
    nops = 0
    order = []
    for idx in range(leader, leader + length):
        cat, inst, fn, _record = decoded[idx]
        op, rd = inst.op, inst.rd
        env[f"f{idx}"] = fn
        imm = repr(inst.imm)
        if type(inst.imm) is not int:
            imm = f"k{idx}"
            env[imm] = inst.imm
        a = f"regs[{inst.rs1}]" if inst.rs1 >= 0 else "0"
        b = f"regs[{inst.rs2}]" if inst.rs2 >= 0 else "0"
        ea = f"({a} + {imm}) & 0xFFFFFFFF"
        link = TEXT_BASE + (idx + 1) * INST_SIZE
        set_rd = f"regs[{rd}] = " if rd > 0 else ""
        if cat == _CAT_NOP:
            nops += 1
            continue
        if cat != _CAT_HALT:
            order.append(idx)
        if cat == _CAT_COMPUTE:
            lines.append(f"{set_rd}f{idx}({a}, {b}, {imm})")
        elif cat == _CAT_LOAD:
            lines.append(set_rd + _LOAD_CALLS[op].format(ea))
        elif cat == _CAT_STORE:
            lines.append(_STORE_CALLS[op].format(ea, b))
        elif cat == _CAT_PUT:
            mask = " & 0xFF" if op is Op.PUTCH else ""
            lines.append(f"output.append(to_i32(int({a})){mask})")
        elif cat == _CAT_COND_BRANCH:
            lines.append(f"return {imm} if f{idx}({a}, {b}) else {idx + 1}")
        elif cat == _CAT_JUMP:
            if op is Op.JAL and rd > 0:
                lines.append(f"regs[{rd}] = {link}")
            lines.append(f"return {imm}")
        elif cat == _CAT_JUMP_REG:
            lines += [
                f"addr = int({a})",
                f"if addr % {INST_SIZE} or addr < {TEXT_BASE}:",
                '    raise EmulatorError(f"jr to bad address {addr:#x}")',
            ]
            if op is Op.JALR and rd > 0:
                lines.append(f"regs[{rd}] = {link}")
            lines.append(f"return (addr - {TEXT_BASE}) // {INST_SIZE}")
        else:  # _CAT_HALT
            lines.append("return None")
    if decoded[leader + length - 1][0] not in _BLOCK_ENDS:
        lines.append(f"return {leader + length}")
    source = "\n    ".join(lines)
    exec(compile(source, f"<block {leader}>", "exec"), env)
    return env["run"], length, nops, tuple(order)


_keys = count()
#: The last :class:`BlockCache` unpickled in this process, so the chunks
#: of one campaign that reach a pool worker share its translations.
_revived: List["BlockCache"] = []


def _revive(key, program: Program) -> "BlockCache":
    if _revived and _revived[0].key == key:
        return _revived[0]
    cache = BlockCache(program, key)
    _revived[:] = [cache]
    return cache


class BlockCache:
    """A program's decoded instructions and its basic blocks, each block
    translated by :func:`_translate` the first time a run enters it.

    A campaign makes one per program and passes it to every run, so each
    block is translated at most once per campaign.  It pickles as its
    program and a key unique to the cache; every copy a process
    unpickles with the same key is one cache there, translated lazily.

    ``table[i]`` is ``False`` when no block starts at ``i``, ``None``
    for a leader not yet translated, and the translation otherwise;
    ``span[i]`` counts the instructions from ``i`` to the end of its
    block, and ``eligible[i]`` says whether ``i`` has an ordinal.
    """

    def __init__(self, program: Program, key=None) -> None:
        self.program = program
        self.key = (os.getpid(), next(_keys)) if key is None else key
        self.decoded = _decode_program(program)
        self.table: Optional[list] = None
        self.span: List[int] = []
        self.eligible: List[bool] = []

    def __reduce__(self):
        return _revive, (self.key, self.program)

    def prepare(self) -> "BlockCache":
        """Find the leaders and block extents (once); returns ``self``."""
        if self.table is not None:
            return self
        decoded = self.decoded
        n_code = len(decoded)
        leaders = {0}
        for idx, (cat, inst, _fn, _record) in enumerate(decoded):
            if cat in _BLOCK_ENDS:
                leaders.add(idx + 1)
                if cat in (_CAT_COND_BRANCH, _CAT_JUMP):
                    leaders.add(inst.imm)
        span = [1] * n_code
        for idx in range(n_code - 2, -1, -1):
            if decoded[idx][0] not in _BLOCK_ENDS and idx + 1 not in leaders:
                span[idx] = span[idx + 1] + 1
        self.span = span
        self.eligible = [cat not in (_CAT_NOP, _CAT_HALT)
                         for cat, _inst, _fn, _record in decoded]
        self.table = [None if idx in leaders else False
                      for idx in range(n_code)]
        return self

    def translate(self, leader: int):
        """Translate the block at ``leader`` into :attr:`table`."""
        block = self.table[leader] = _translate(self.decoded, leader,
                                                self.span[leader])
        return block


def _interpret(decoded, regs, memory, output, trace, inject,
               idx, retired, nops, limit, hooked=False):
    """Step instructions until ``retired`` reaches ``limit`` or ``halt``.

    With a ``trace`` it appends each instruction's column values (see
    :mod:`repro.arch.trace`); an instruction whose values do not fit
    the columns is escaped.  At an armed step (``inject``), and at every
    step of a run that has a hook (``hooked``), it builds the
    :class:`DynInst` instead, in one call of its decoded ``record``
    constructor: the hook sees the complete record, and the trace packs
    it after the hook ran.  Returns ``(idx, retired, nops, halted)``.
    """
    n_code = len(decoded)
    build = hooked or inject is not None
    pack = trace is not None and not build
    if pack:
        put_a, put_b = trace.a.append, trace.b.append
        put_v, put_x = trace.value.append, trace.addr.append
        put_i = trace.index.append
    while retired < limit:
        if not 0 <= idx < n_code:
            raise EmulatorError(
                "control transferred outside text segment: "
                f"index {idx}"
            )
        cat, inst, fn, record = decoded[idx]
        op = inst.op
        rs1 = inst.rs1
        rs2 = inst.rs2
        a = regs[rs1] if rs1 >= 0 else 0
        b = regs[rs2] if rs2 >= 0 else 0
        imm = inst.imm
        next_idx = idx + 1
        # The column values: see the table in repro.arch.trace.
        value = addr = 0

        if cat == _CAT_COMPUTE:
            result = value = fn(a, b, imm)
            if build:
                dyn = record(a, b, result, 0)
                if inject is not None:
                    inject(dyn)
                    result = dyn.result
            if inst.rd > 0:
                regs[inst.rd] = result
        elif cat == _CAT_LOAD:
            ea = addr = (a + imm) & 0xFFFFFFFF
            if op is Op.LW:
                result = memory.load_word(ea)
            elif op is Op.LB:
                result = memory.load_byte(ea, signed=True)
            elif op is Op.LBU:
                result = memory.load_byte(ea, signed=False)
            else:  # LWF
                result = memory.load_float(ea)
            value = result
            if build:
                dyn = record(a, b, result, ea)
                if inject is not None:
                    inject(dyn)
                    result = dyn.result
            if inst.rd > 0:
                regs[inst.rd] = result
        elif cat == _CAT_STORE:
            ea = addr = (a + imm) & 0xFFFFFFFF
            value = b
            if build:
                dyn = record(a, b, value, ea)
                if inject is not None:
                    inject(dyn)
                    ea = dyn.ea
                    value = dyn.store_value
            if op is Op.SW:
                memory.store_word(ea, int(value))
            elif op is Op.SB:
                memory.store_byte(ea, int(value))
            else:  # SWF
                memory.store_float(ea, float(value))
        elif cat == _CAT_COND_BRANCH:
            addr = imm
            if fn(a, b):
                next_idx = imm
                value = 1
            if build:
                dyn = record(a, b, value, imm)
                if inject is not None:
                    inject(dyn)
                    next_idx = dyn.next_index = (
                        dyn.target_index if dyn.taken else idx + 1)
        elif cat == _CAT_JUMP:
            next_idx = addr = imm
            value = 1
            link = TEXT_BASE + (idx + 1) * INST_SIZE
            if build:
                dyn = record(a, b, 1, imm)
                if inject is not None:
                    inject(dyn)
                    next_idx = dyn.next_index = dyn.target_index
                    if op is Op.JAL and dyn.result is not None:
                        link = int(dyn.result)
            if op is Op.JAL and inst.rd > 0:
                regs[inst.rd] = link
        elif cat == _CAT_JUMP_REG:
            addr = int(a)
            if addr % INST_SIZE or addr < TEXT_BASE:
                raise EmulatorError(f"jr to bad address {addr:#x}")
            next_idx = addr = (addr - TEXT_BASE) // INST_SIZE
            value = 1
            link = TEXT_BASE + (idx + 1) * INST_SIZE
            if build:
                dyn = record(a, b, 1, next_idx)
                if inject is not None:
                    inject(dyn)
                    next_idx = dyn.next_index = dyn.target_index
                    if op is Op.JALR and dyn.result is not None:
                        link = int(dyn.result)
            if op is Op.JALR and inst.rd > 0:
                regs[inst.rd] = link
        elif cat == _CAT_PUT:
            out = to_i32(int(a))
            if op is Op.PUTCH:
                out &= 0xFF
            output.append(out)
            if build:
                dyn = record(a, b, 0, 0)
                if inject is not None:
                    inject(dyn)
        elif cat == _CAT_HALT:
            addr = -1
            if build:
                dyn = record(a, b, 0, -1)
        else:  # _CAT_NOP
            nops += 1
            if build:
                dyn = record(a, b, 0, 0)

        if pack:
            try:  # index last: its length counts the packed records
                put_a(a)
                put_b(b)
                put_v(value)
                put_x(addr)
                put_i(idx)
            except (TypeError, OverflowError):
                trace.escape(record(a, b, value, addr))
        elif trace is not None:
            trace.append(dyn)
        retired += 1
        if cat == _CAT_HALT:
            return idx, retired, nops, True
        idx = next_idx
    return idx, retired, nops, False


def _run_blocks(cache: BlockCache, regs, memory, output, idx, retired, nops,
                limit, order: Optional[List[int]]):
    """A hookless stretch: whole blocks while they fit before ``limit``,
    the interpreter for the rest.  Appends each eligible instruction's
    static index to ``order`` (if given).  Returns like
    :func:`_interpret`."""
    table, span, decoded = cache.table, cache.span, cache.decoded
    n_code = len(table)
    while retired < limit:
        if not 0 <= idx < n_code:
            raise EmulatorError(
                "control transferred outside text segment: "
                f"index {idx}"
            )
        block = table[idx]
        if block is None:
            block = cache.translate(idx)
        if block and retired + block[1] <= limit:
            run, length, block_nops, block_order = block
            idx = run(regs, memory, output)
            retired += length
            nops += block_nops
            if order is not None:
                order += block_order
            if idx is None:
                return idx, retired, nops, True
            continue
        # A non-leader entry or a tail past the limit: straight-line to
        # the end of the block at most.
        start, before = idx, retired
        idx, retired, nops, halted = _interpret(
            decoded, regs, memory, output, None, None, idx, retired, nops,
            min(limit, retired + span[idx]))
        if order is not None:
            eligible = cache.eligible
            order += [i for i in range(start, start + retired - before)
                      if eligible[i]]
        if halted:
            return idx, retired, nops, True
    return idx, retired, nops, False


class Emulator:
    """Functional executor for mini-ISA programs."""

    def __init__(
        self,
        program: Program,
        max_instructions: int = 2_000_000,
        inject: Optional[Callable[[DynInst], None]] = None,
        schedule: Optional[Iterable[int]] = None,
        golden: Optional[Sequence[Checkpoint]] = None,
        blocks: Optional[BlockCache] = None,
    ) -> None:
        if schedule is not None and inject is None:
            raise ValueError("a schedule needs an inject hook")
        if blocks is not None and blocks.program is not program:
            raise ValueError("a block cache serves the program it was made for")
        self.program = program
        self.max_instructions = max_instructions
        self.inject = inject
        #: Ascending eligible-instruction ordinals at which to call
        #: ``inject``; ``None`` calls it at every eligible instruction.
        #: It is read lazily: the next ordinal is drawn only after the
        #: hook has run at the current one.
        self.schedule = schedule
        self.golden = golden  # the golden run's checkpoints
        #: Decoded program and translated blocks; one per run if not given.
        self.blocks = blocks

    def run(self, collect_trace: bool = True,
            checkpoints: bool = False, order: bool = False) -> EmulationResult:
        """Execute the program from its start or its resume point.

        Args:
            collect_trace: when True (the default), build the packed
                dynamic trace used by the timing models; turn off for pure
                architectural runs (fault campaigns) to save memory.
            checkpoints: record a :class:`Checkpoint` every
                :data:`CHECKPOINT_INTERVAL` retired instructions.
            order: record each eligible instruction's static index as
                :attr:`EmulationResult.order` (a hookless run only).

        Returns:
            An :class:`EmulationResult`.

        Raises:
            EmulatorError: on a jump outside the text segment.
            ValueError: on golden checkpoints without a traceless
                schedule, or an order asked of a run with a trace or hook.
        """
        program = self.program
        cache = self.blocks or BlockCache(program)
        decoded = cache.decoded

        # A scheduled run alternates hookless stretches, which stop where
        # the next scheduled ordinal is due, with single armed steps that
        # build the DynInst and call the hook.  ``retired - nops`` counts
        # the eligible instructions run so far (``halt`` ends the run).
        # Stretches also stop at checkpoint positions, to record or compare.
        schedule = None if self.schedule is None else iter(self.schedule)
        due = -1 if schedule is None else next(schedule, -1)
        golden = self.golden
        if golden is not None and (schedule is None or collect_trace):
            raise ValueError("golden checkpoints resume a traceless schedule")
        if order and (collect_trace or self.inject is not None):
            raise ValueError("an order is recorded by a hookless run")
        if golden is None:  # checkpoint 0
            start = Checkpoint(0, 0, 0, [0] * 32 + [0.0] * (NUM_REGS - 32),
                               dict(Memory(program.data).words()), [])
            start.regs[REG_SP] = STACK_BASE
            golden_words = start.words
        else:
            start = _resume_point(golden, due)
            # The golden memory at checkpoint ``seen``, kept current for
            # the convergence checks.
            seen = start.retired // CHECKPOINT_INTERVAL
            golden_words = fold_words(golden[:seen + 1])
        idx, retired, nops = start.idx, start.retired, start.nops
        regs = list(start.regs)
        memory = Memory.of_words(golden_words)
        output = list(start.output)
        trace = (PackedTrace(static_records(program)) if collect_trace
                 else None)
        inject = self.inject
        hooked = inject is not None
        recorded_order: Optional[List[int]] = [] if order else None

        halted = converged = False
        max_insts = self.max_instructions
        recorded: Optional[List[Checkpoint]] = [] if checkpoints else None
        # The memory at the last recorded checkpoint.
        recorded_words: Dict[int, int] = {}
        golden_end = len(golden or ()) * CHECKPOINT_INTERVAL
        mark = retired  # the next checkpoint position

        while True:
            if mark < retired:  # passed where no checkpoint was due
                mark = -(-retired // CHECKPOINT_INTERVAL) * CHECKPOINT_INTERVAL
            if retired == mark:
                if recorded is not None:  # only the words changed since
                    get = recorded_words.get
                    words = {addr: word for addr, word in memory.words()
                             if get(addr) != word}
                    recorded_words.update(words)
                    recorded.append(Checkpoint(idx, retired, nops, list(regs),
                                               words, list(output)))
                elif due < 0 and mark < golden_end:
                    at = mark // CHECKPOINT_INTERVAL
                    fold_words(golden[seen + 1:at + 1], golden_words)
                    seen = at
                    if _same_state(golden[at], golden_words, idx, nops, regs,
                                   memory, output):
                        converged = True
                        break
                mark += CHECKPOINT_INTERVAL
            limit = max_insts
            if schedule is not None:
                if due < 0:  # schedule exhausted: run out hooklessly
                    inject = None
                elif due > retired - nops:  # hookless up to the due one
                    limit = min(max_insts, due + nops)
                    inject = None
                else:  # arm the next instruction
                    limit = retired + 1
                    inject = self.inject
            # Stop at the mark only to record a checkpoint or to compare
            # with one: a run with a strike still due cannot converge.
            if recorded is not None or (due < 0 and mark < golden_end):
                limit = min(limit, mark)

            if trace is not None or inject is not None:
                idx, retired, nops, halted = _interpret(
                    decoded, regs, memory, output, trace, inject,
                    idx, retired, nops, limit, hooked)
            else:
                idx, retired, nops, halted = _run_blocks(
                    cache.prepare(), regs, memory, output, idx, retired, nops,
                    limit, recorded_order)

            if halted or retired >= max_insts:
                break
            if inject is not None and retired - nops > due >= 0:
                # The armed instruction was eligible and its hook ran.
                previous, due = due, next(schedule, -1)
                if 0 <= due <= previous:
                    raise ValueError("schedule ordinals must ascend")

        return EmulationResult(program, regs, memory, output, trace, halted,
                               retired, recorded, converged, recorded_order)


def emulate(
    program: Program,
    max_instructions: int = 2_000_000,
    collect_trace: bool = True,
    inject: Optional[Callable[[DynInst], None]] = None,
    schedule: Optional[Iterable[int]] = None,
    golden: Optional[Sequence[Checkpoint]] = None,
    checkpoints: bool = False,
    blocks: Optional[BlockCache] = None,
    order: bool = False,
) -> EmulationResult:
    """Convenience wrapper: run ``program`` on a fresh :class:`Emulator`.

    ``blocks`` shares translated blocks between the runs of one program.
    """
    emulator = Emulator(program, max_instructions=max_instructions,
                        inject=inject, schedule=schedule, golden=golden,
                        blocks=blocks)
    return emulator.run(collect_trace=collect_trace, checkpoints=checkpoints,
                        order=order)
