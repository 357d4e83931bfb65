"""In-order functional emulator — the architectural oracle.

The emulator executes a :class:`~repro.isa.program.Program` with exact
ISA semantics and produces

* the final architectural state (registers, memory, output channel), and
* optionally the **dynamic trace** (:class:`~repro.arch.trace.DynInst`
  records) that drives the cycle-level timing models.

It is deliberately simple and strictly in order: it is the reference
against which both the baseline and REESE timing models are validated
(every timing simulation must commit exactly the instructions of this
trace, in this order), and the substrate for architectural fault-
injection campaigns (silent-data-corruption studies on a machine
*without* REESE).

Fault injection hooks: an ``inject`` callable, when provided, is invoked
with each :class:`DynInst` *after* its results are computed and *before*
they are committed architecturally.  The hook may mutate ``result``,
``store_value``, ``taken`` and ``target_index`` to model a soft error;
the emulator then commits the corrupted values, faithfully propagating
the error through the remainder of the program.

The hook sees every *eligible* instruction: every instruction except
``nop`` and ``halt``.  Eligible instructions are numbered from 0 in
execution order; these are their *ordinals*.  A fault campaign that
corrupts a few known ordinals passes them as an ascending ``schedule``.
The emulator then builds the :class:`DynInst` and calls the hook at
those ordinals only, and runs the hookless fast path everywhere else.
A scheduled run given a golden run's checkpoints resumes from the latest
one at or before its first ordinal, and once nothing is due stops as
``converged`` at the first later checkpoint its state matches exactly.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from functools import partial
from struct import pack
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Union

from ..isa.instructions import INST_SIZE, Instruction, Op, OPINFO, FUClass
from ..isa.program import Program, STACK_BASE, TEXT_BASE
from ..isa.registers import NUM_REGS, REG_SP
from ..isa.semantics import (_BRANCH_TAKEN, _COMPUTE, branch_taken, compute,
                             to_i32)
from .memory import Memory
from .trace import DynInst, Trace

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

#: Retired instructions between two checkpoints of a golden run.
CHECKPOINT_INTERVAL = 256


class EmulatorError(Exception):
    """Raised when a program performs an illegal action (bad PC, etc.)."""


#: The state just before the instruction at retired position ``retired``;
#: ``regs``, ``words`` (raw, zero words kept) and ``output`` are copies.
Checkpoint = namedtuple("Checkpoint", "idx retired nops regs words output")


def _resume_point(golden: Sequence[Checkpoint], due: int) -> Checkpoint:
    """The latest checkpoint at or before ordinal ``due`` (if due)."""
    ordinals = [point.retired - point.nops for point in golden]
    return golden[bisect_right(ordinals, due) - 1 if due >= 0 else -1]


def _same_state(point: Checkpoint, idx: int, nops: int, regs: List[Value],
                memory: Memory, output: List[int]) -> bool:
    """Whether a run's state equals ``point`` bit for bit: ``-0.0`` does
    not match ``0.0``, and a NaN matches only itself (the same object)."""
    return (idx == point.idx and nops == point.nops and regs == point.regs
            and output == point.output
            and memory.words() == point.words.items()
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
        trace: Optional[Trace],
        halted: bool,
        instructions: int,
        checkpoints: Optional[List[Checkpoint]] = None,
        converged: bool = False,
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


def _decode_program(program: Program):
    """Precompute per-instruction dispatch tuples for the hot loop; an op
    without compute or branch semantics raises ``KeyError`` when it runs."""
    decoded = []
    for inst in program.code:
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
        decoded.append((cat, inst, info, fn))
    return decoded


class Emulator:
    """Functional executor for mini-ISA programs."""

    def __init__(
        self,
        program: Program,
        max_instructions: int = 2_000_000,
        inject: Optional[Callable[[DynInst], None]] = None,
        schedule: Optional[Iterable[int]] = None,
        golden: Optional[Sequence[Checkpoint]] = None,
    ) -> None:
        if schedule is not None and inject is None:
            raise ValueError("a schedule needs an inject hook")
        self.program = program
        self.max_instructions = max_instructions
        self.inject = inject
        #: Ascending eligible-instruction ordinals at which to call
        #: ``inject``; ``None`` calls it at every eligible instruction.
        #: It is read lazily: the next ordinal is drawn only after the
        #: hook has run at the current one.
        self.schedule = schedule
        self.golden = golden  # the golden run's checkpoints

    def run(self, collect_trace: bool = True,
            checkpoints: bool = False) -> EmulationResult:
        """Execute the program from its start or its resume point.

        Args:
            collect_trace: when True (the default), build the dynamic
                trace used by the timing models; turn off for pure
                architectural runs (fault campaigns) to save memory.
            checkpoints: record a :class:`Checkpoint` every
                :data:`CHECKPOINT_INTERVAL` retired instructions.

        Returns:
            An :class:`EmulationResult`.

        Raises:
            EmulatorError: on a jump outside the text segment.
            ValueError: on golden checkpoints without a traceless schedule.
        """
        program = self.program
        code = program.code
        decoded = _decode_program(program)
        n_code = len(code)

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
        if golden is None:  # checkpoint 0
            start = Checkpoint(0, 0, 0, [0] * 32 + [0.0] * (NUM_REGS - 32),
                               dict(Memory(program.data).words()), [])
            start.regs[REG_SP] = STACK_BASE
        else:
            start = _resume_point(golden, due)
        idx, retired, nops = start.idx, start.retired, start.nops
        regs = list(start.regs)
        memory = Memory.of_words(start.words)
        output = list(start.output)
        trace: Optional[Trace] = [] if collect_trace else None
        inject = self.inject
        build = trace is not None or inject is not None

        halted = converged = False
        max_insts = self.max_instructions
        recorded: Optional[List[Checkpoint]] = [] if checkpoints else None
        watch = checkpoints or golden is not None
        golden_end = len(golden or ()) * CHECKPOINT_INTERVAL
        mark = retired  # the next checkpoint position

        while True:
            if retired == mark:
                if recorded is not None:  # unchanged words are shared
                    words = recorded[-1].words if recorded else {}
                    if memory.words() != words.items():
                        words = dict(memory.words())
                    recorded.append(Checkpoint(idx, retired, nops, list(regs),
                                               words, list(output)))
                elif due < 0 and mark < golden_end and _same_state(
                        golden[mark // CHECKPOINT_INTERVAL],
                        idx, nops, regs, memory, output):
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
                build = trace is not None or inject is not None
            if watch:
                limit = min(limit, mark)

            while retired < limit:
                if not 0 <= idx < n_code:
                    raise EmulatorError(
                        "control transferred outside text segment: "
                        f"index {idx}"
                    )
                cat, inst, info, fn = decoded[idx]
                op = inst.op
                rs1 = inst.rs1
                rs2 = inst.rs2
                a = regs[rs1] if rs1 >= 0 else 0
                b = regs[rs2] if rs2 >= 0 else 0
                imm = inst.imm

                dyn: Optional[DynInst] = None
                if build:
                    dyn = DynInst()
                    dyn.seq = retired
                    dyn.static_index = idx
                    dyn.pc = TEXT_BASE + idx * INST_SIZE
                    dyn.op = op
                    dyn.fu = info.fu
                    dyn.dst = inst.dst()
                    dyn.srcs = inst.srcs()
                    dyn.a = a
                    dyn.b = b
                    dyn.imm = imm

                next_idx = idx + 1

                if cat == _CAT_COMPUTE:
                    result = fn(a, b, imm)
                    if dyn is not None:
                        dyn.result = result
                        if inject is not None:
                            inject(dyn)
                            result = dyn.result
                    if inst.rd > 0:
                        regs[inst.rd] = result
                elif cat == _CAT_LOAD:
                    ea = (a + imm) & 0xFFFFFFFF
                    if op is Op.LW:
                        result = memory.load_word(ea)
                    elif op is Op.LB:
                        result = memory.load_byte(ea, signed=True)
                    elif op is Op.LBU:
                        result = memory.load_byte(ea, signed=False)
                    else:  # LWF
                        result = memory.load_float(ea)
                    if dyn is not None:
                        dyn.is_load = True
                        dyn.ea = ea
                        dyn.result = result
                        if inject is not None:
                            inject(dyn)
                            result = dyn.result
                    if inst.rd > 0:
                        regs[inst.rd] = result
                elif cat == _CAT_STORE:
                    ea = (a + imm) & 0xFFFFFFFF
                    value = b
                    if dyn is not None:
                        dyn.is_store = True
                        dyn.ea = ea
                        dyn.store_value = value
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
                    taken = fn(a, b)
                    target = imm
                    if dyn is not None:
                        dyn.is_branch = True
                        dyn.is_cond_branch = True
                        dyn.taken = taken
                        dyn.target_index = target
                        dyn.result = int(taken)
                        if inject is not None:
                            inject(dyn)
                            taken = bool(dyn.taken)
                            target = dyn.target_index
                    if taken:
                        next_idx = target
                elif cat == _CAT_JUMP:
                    target = imm
                    link = TEXT_BASE + (idx + 1) * INST_SIZE
                    if dyn is not None:
                        dyn.is_branch = True
                        dyn.taken = True
                        dyn.target_index = target
                        if op is Op.JAL:
                            dyn.result = link
                        if inject is not None:
                            inject(dyn)
                            target = dyn.target_index
                            if op is Op.JAL and dyn.result is not None:
                                link = int(dyn.result)
                    if op is Op.JAL and inst.rd > 0:
                        regs[inst.rd] = link
                    next_idx = target
                elif cat == _CAT_JUMP_REG:
                    addr = int(a)
                    if addr % INST_SIZE or addr < TEXT_BASE:
                        raise EmulatorError(f"jr to bad address {addr:#x}")
                    target = (addr - TEXT_BASE) // INST_SIZE
                    link = TEXT_BASE + (idx + 1) * INST_SIZE
                    if dyn is not None:
                        dyn.is_branch = True
                        dyn.taken = True
                        dyn.target_index = target
                        if op is Op.JALR:
                            dyn.result = link
                        if inject is not None:
                            inject(dyn)
                            target = dyn.target_index
                            if op is Op.JALR and dyn.result is not None:
                                link = int(dyn.result)
                    if op is Op.JALR and inst.rd > 0:
                        regs[inst.rd] = link
                    next_idx = target
                elif cat == _CAT_PUT:
                    value = to_i32(int(a))
                    if op is Op.PUTCH:
                        value &= 0xFF
                    output.append(value)
                    if dyn is not None and inject is not None:
                        inject(dyn)
                elif cat == _CAT_HALT:
                    if dyn is not None:
                        dyn.next_index = idx
                        if trace is not None:
                            trace.append(dyn)
                    retired += 1
                    halted = True
                    break
                else:  # _CAT_NOP
                    nops += 1

                if dyn is not None:
                    dyn.next_index = next_idx
                    if trace is not None:
                        trace.append(dyn)
                retired += 1
                idx = next_idx

            if halted or retired >= max_insts:
                break
            if inject is not None and retired - nops > due >= 0:
                # The armed instruction was eligible and its hook ran.
                previous, due = due, next(schedule, -1)
                if 0 <= due <= previous:
                    raise ValueError("schedule ordinals must ascend")

        return EmulationResult(program, regs, memory, output, trace, halted,
                               retired, recorded, converged)


def emulate(
    program: Program,
    max_instructions: int = 2_000_000,
    collect_trace: bool = True,
    inject: Optional[Callable[[DynInst], None]] = None,
    schedule: Optional[Iterable[int]] = None,
    golden: Optional[Sequence[Checkpoint]] = None,
    checkpoints: bool = False,
) -> EmulationResult:
    """Convenience wrapper: run ``program`` on a fresh :class:`Emulator`."""
    emulator = Emulator(program, max_instructions=max_instructions,
                        inject=inject, schedule=schedule, golden=golden)
    return emulator.run(collect_trace=collect_trace, checkpoints=checkpoints)
