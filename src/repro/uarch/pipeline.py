"""Cycle-level out-of-order superscalar core with optional REESE.

The model mirrors SimpleScalar 2.0's ``sim-outorder`` organisation
(paper §5.1): a fetch queue feeds dispatch/rename into a **Register
Update Unit** — a circular queue combining reservation stations and a
reorder buffer — with a parallel **load/store queue**; instructions
issue out of order to functional-unit pools and commit in order from
the RUU head.  Stage processing runs in reverse pipeline order each
cycle (commit, writeback, issue, dispatch, fetch), as in sim-outorder.

Execution is driven by the functional emulator's dynamic trace along
the correct path; mispredicted branches switch fetch onto the *static*
program's wrong path, whose instructions occupy the fetch queue, RUU,
LSQ and functional units until the branch resolves at writeback and
squashes them.

With ``config.reese.enabled`` the commit stage implements the REESE
protocol (paper §4):

1. completed P-stream instructions leave the RUU into the
   **R-stream Queue** (freeing their RUU/LSQ entries) instead of
   committing — from the head in program order, or from anywhere in the
   window when ``early_remove`` is on;
2. R-stream instructions issue from the queue into functional-unit
   slots left idle by the P stream (P has priority; a high-water mark
   forces R priority to avoid overflow livelock);
3. when an entry's R execution completes, the commit stage compares the
   P and R results in program order and only then updates architectural
   state (stores write the D-cache here);
4. a mismatch flushes the pipeline *and* the R-stream Queue and
   refetches from the faulting instruction; an instruction that keeps
   failing stops the machine (:class:`~repro.reese.recovery.UnrecoverableFaultError`).

Soft errors are injected by a :class:`~repro.reese.faults.FaultModel`
that corrupts execution results at completion time; in the baseline
model corrupted results commit silently (counted as SDC), while REESE
detects any P/R mismatch.
"""

from __future__ import annotations

from collections import defaultdict, deque
from operator import attrgetter
from typing import Any, Deque, Dict, List, Optional, Sequence
from weakref import WeakKeyDictionary

from ..arch.trace import DynInst, Trace
from ..bpred import BTB, PerfectPredictor, ReturnAddressStack, make_predictor
from ..isa.instructions import FUClass, Op, OPINFO
from ..isa.program import Program, TEXT_BASE
from ..isa.registers import REG_RA
from ..isa.instructions import INST_SIZE
from ..memhier.hierarchy import MemoryHierarchy
from ..reese import comparator
from ..reese.comparator import p_value as reese_p_value
from ..reese.comparator import reexecute as reese_reexecute
from ..reese.comparator import values_equal
from ..reese.faults import FaultModel, NoFaults, corrupt_value
from ..reese.recovery import RetryTracker, UnrecoverableFaultError
from ..reese.rqueue import R_DONE, R_ISSUED, R_WAITING, RStreamQueue
from .config import MachineConfig
from .funits import FUPool
from .observe import StageHooks
from .stats import Stats

# Enum members used per instruction, bound once: a module global is an
# order of magnitude cheaper to read than an enum class attribute.
_HALT, _J, _JAL, _JR, _JALR = Op.HALT, Op.J, Op.JAL, Op.JR, Op.JALR
_FU_NONE, _FU_MEM = FUClass.NONE, FUClass.MEM_PORT
_CMP_LOAD, _CMP_COMPUTE, _CMP_BRANCH = (
    comparator.CMP_LOAD, comparator.CMP_COMPUTE, comparator.CMP_BRANCH
)

# Program -> per static instruction, a wrong-path entry's ``(srcs, dst)``.
_REGS: "WeakKeyDictionary[Program, list]" = WeakKeyDictionary()


class SimulationDeadlockError(Exception):
    """The pipeline made no commit progress for an implausible interval."""


class SimulationTimeoutError(Exception):
    """The cycle cap expired before every trace instruction committed.

    Carries the partial :class:`~repro.uarch.stats.Stats` as
    :attr:`stats` for diagnosis; the harness must never cache or report
    such a truncated result as if the run had finished.
    """

    def __init__(self, cap: int, committed: int, total: int, stats) -> None:
        self.cap = cap
        self.committed = committed
        self.total = total
        self.stats = stats
        super().__init__(
            f"cycle cap {cap} exhausted with {committed}/{total} "
            f"instructions committed"
        )

    def __reduce__(self):
        return type(self), (self.cap, self.committed, self.total, self.stats)


def warm_caches_over(mem: MemoryHierarchy, trace, line_shift: int) -> None:
    """Architecturally touch every I-line, data address and TLB page.

    One functional pass over ``trace`` (any iterable of
    :class:`~repro.arch.trace.DynInst`): instruction lines are fetched
    once per line run, loads/stores touch the data side.  The cache half
    of :meth:`WarmState.warm_full` and :meth:`WarmState.advance`, whose
    sampled fast-forward between measurement intervals is exactly this
    pass over the skipped region.  The pass moves the cache counters;
    :meth:`WarmState.reset_stats` zeroes them when it is warm-up rather
    than measurement.
    """
    # Hoisted bound methods: this loop is the sampled engine's
    # fast-forward path, run over most of the trace per sampled run.
    ifetch = mem.ifetch
    daccess = mem.daccess
    last_line = -1
    for dyn in trace:
        pc = dyn.pc
        line = pc >> line_shift
        if line != last_line:
            ifetch(pc)
            last_line = line
        ea = dyn.ea
        if ea is not None:
            daccess(ea, is_write=dyn.is_store)


def warm_predictor_over(predictor, trace) -> None:
    """Pre-train the direction predictor on a branch stream.

    The counterpart of :func:`warm_caches_over` for the predictor: one
    predict/update pass over every conditional branch in ``trace``,
    which leaves the accuracy counters alone.
    """
    predict = predictor.predict
    update = predictor.update
    for dyn in trace:
        if dyn.is_cond_branch:
            pc = dyn.pc
            predict(pc)
            update(pc, dyn.taken)


class WarmState:
    """A machine's memory hierarchy and fetch predictors.

    The one place that builds the memory hierarchy, direction predictor,
    BTB and return-address stack of a config, applies the fetch-time
    prediction policy to them (:meth:`predict_next`) and zeroes their
    counters (:meth:`reset_stats`).  A :class:`Pipeline` runs on one:
    its own, built cold and warmed in place by :meth:`warm_full` for a
    warm full run, or a :meth:`snapshot` the sampled engine
    (:mod:`repro.uarch.sampling`) functionally fast-forwarded to an
    interval start with :meth:`advance`.

    ``warm_full`` touches caches and direction predictor only, over the
    whole trace: the paper simulates 100 M instructions per benchmark,
    so its caches run warm, while our runs of 10^4-10^5 instructions
    would otherwise be dominated by compulsory misses.  ``advance``
    replays a trace slice as fetch would, BTB and return-address stack
    included, so a sampled window's control-flow structures hold their
    true mid-run state (modulo wrong-path speculation) rather than
    starting cold at every interval.
    """

    __slots__ = ("program", "mem", "predictor", "btb", "ras", "_line_shift")

    def __init__(self, program: Program, config: MachineConfig) -> None:
        self.program = program
        self.mem = MemoryHierarchy(config.mem)
        self.predictor = make_predictor(
            config.predictor, **config.predictor_kwargs
        )
        self.btb = BTB(config.btb_entries)
        self.ras = ReturnAddressStack(config.ras_depth)
        self._line_shift = config.mem.l1i.line_size.bit_length() - 1

    def predict_next(self, dyn: DynInst) -> int:
        """Predicted next static index of the control transfer ``dyn``.

        Fetch consults and trains the structures with the trace's ground
        truth (oracle update timing, DESIGN.md §5): a conditional branch
        predicts and trains the direction predictor (priming the oracle
        predictor first), a call pushes its return index, ``jr ra`` pops
        it, and any other indirect jump looks up the BTB, which then
        learns the resolved target.  -1 when no target is predicted.
        """
        if dyn.is_cond_branch:
            predictor = self.predictor
            # An exact-class test: isinstance against the predictors'
            # abstract base class costs an ABC instance check per branch.
            if predictor.__class__ is PerfectPredictor:
                predictor.prime(dyn.taken)
            if predictor.predict_and_update(dyn.pc, dyn.taken):
                return dyn.target_index
            return dyn.static_index + 1
        op = dyn.op
        if op is _J:
            return dyn.target_index  # direct: target in the instruction word
        fallthrough = dyn.static_index + 1
        if op is _JAL or op is _JALR:
            self.ras.push(fallthrough)
            if op is _JAL:
                return dyn.target_index
            predicted = self.btb.lookup(dyn.pc)
        elif op is not _JR:
            raise AssertionError(f"not a branch: {op}")
        elif self.program.code[dyn.static_index].rs1 == REG_RA:
            predicted = self.ras.pop()
        else:
            predicted = self.btb.lookup(dyn.pc)
        self.btb.update(dyn.pc, dyn.target_index)
        return predicted if predicted is not None else -1

    def reset_stats(self) -> None:
        """Zero every counter, leaving tags, tables and stacks as they are."""
        self.mem.reset_stats()
        self.predictor.lookups = self.predictor.correct = 0
        self.btb.hits = self.btb.misses = 0
        stack = self.ras
        stack.pushes = stack.pops = stack.overflows = 0

    def warm_full(self, trace) -> None:
        """The full-trace warm pass, then :meth:`reset_stats`, so that no
        counter includes it."""
        warm_caches_over(self.mem, trace, self._line_shift)
        warm_predictor_over(self.predictor, trace)
        self.reset_stats()

    def advance(self, trace, start: int, stop: int) -> None:
        """Functionally replay ``trace[start:stop]`` into the state.

        Moves the counters too, which :meth:`snapshot` zeroes.
        """
        window = trace[start:stop]
        warm_caches_over(self.mem, window, self._line_shift)
        predict_next = self.predict_next
        for dyn in window:
            if dyn.is_branch:
                predict_next(dyn)

    def snapshot(self) -> "WarmState":
        """An isolated copy with its counters zeroed."""
        clone = WarmState.__new__(WarmState)
        clone.program = self.program
        clone.mem = self.mem.clone_state()
        clone.predictor = self.predictor.clone_state()
        clone.btb = self.btb.clone_state()
        clone.ras = self.ras.clone_state()
        clone._line_shift = self._line_shift
        clone.reset_stats()
        return clone


class _Entry:
    """One in-flight instruction (fetch queue / RUU / LSQ resident).

    Under REESE the entry that leaves the RUU is also the R-stream Queue
    entry: the move fills the slots from ``p_value`` to ``order``, and
    R completion ``r_value`` and ``r_fault_bit``; until then they are
    unset.
    """

    __slots__ = (
        "seq",            # dispatch-order id, unique across refetches
        "dyn",            # DynInst for correct-path, None for wrong path
        "trace_seq",      # dyn.seq, or -1 for wrong path
        "op",
        "fu",
        "is_load",
        "is_store",
        "is_branch",
        "is_halt",
        "srcs",
        "dst",
        "is_mem",
        "wrong_path",
        "deps",
        "consumers",
        "issued",
        "completed",
        "squashed",
        "mispredicted",
        "recover_cursor",  # trace cursor to resume at after recovery
        "skip_r",          # REESE: this instruction is not re-executed
        "p_fault_bit",     # fault bit flipped in the P result, or None
        "is_shadow",       # dispatch-dup: the duplicate copy
        "shadow",          # dispatch-dup: original -> its duplicate
        # R-stream Queue fields (REESE), set by the move:
        "p_value",         # P comparable value (possibly fault-corrupted)
        "r_fu",            # FUClass the R execution uses
        "r_kind",          # comparator kind (repro.reese.comparator.bind)
        "r_fn",            # its semantic function, or None
        "r_state",         # R_WAITING / R_ISSUED / R_DONE
        "inserted_cycle",
        "order",           # insertion number (the R-issue merge order)
        # ... and by R completion:
        "r_value",         # R comparable value
        "r_fault_bit",     # bit flipped in the R value by a fault, or None
    )

    def __init__(self, seq: int, dyn: Optional[DynInst], inst=None,
                 regs=None) -> None:
        """A correct-path entry for ``dyn``, or (``dyn`` None) a
        wrong-path entry for the static instruction ``inst`` with its
        ``(srcs, dst)`` pair ``regs``."""
        self.seq = seq
        self.dyn = dyn
        if dyn is not None:
            self.trace_seq = dyn.seq
            self.op = dyn.op
            self.fu = dyn.fu
            is_load = self.is_load = dyn.is_load
            is_store = self.is_store = dyn.is_store
            self.is_branch = dyn.is_branch
            self.is_halt = dyn.op is _HALT
            self.wrong_path = False
            self.srcs = dyn.srcs
            self.dst = dyn.dst
        else:
            info = OPINFO[inst.op]
            self.trace_seq = -1
            self.op = inst.op
            self.fu = info.fu
            is_load = self.is_load = info.is_load
            is_store = self.is_store = info.is_store
            self.is_branch = info.is_branch
            self.is_halt = info.is_halt
            self.wrong_path = True
            self.srcs, self.dst = regs
        self.is_mem = is_load or is_store
        self.deps = 0
        self.consumers: List["_Entry"] = []
        self.issued = False
        self.completed = False
        self.squashed = False
        self.mispredicted = False
        self.recover_cursor = -1
        self.skip_r = False
        self.p_fault_bit: Optional[int] = None
        self.is_shadow = False
        self.shadow: Optional["_Entry"] = None


_by_seq = attrgetter("seq")


class Pipeline:
    """One simulated machine executing one program trace.

    Observers watch a run through the typed stage hooks of
    :data:`~repro.uarch.observe.HOOKS`, each resolved once at
    construction, so an unobserved event site costs one ``is None``
    test.  Event hooks take ``(cycle, entry)``; ``on_compare`` adds
    ``match``, ``on_recover`` takes ``(cycle)`` and ``on_fu_block``
    ``(cycle, fu_class, r_work)``.  Under REESE every compare and commit
    is of an R-stream Queue entry.  No observer keeps the pipeline
    (``docs/INTERNALS.md`` §6 and §8).

    The memory hierarchy and the fetch predictors are a
    :class:`WarmState`'s (``warm_state``; ``mem`` and ``predictor`` are
    its structures): fetch predicts through
    :meth:`WarmState.predict_next`, and opening the measurement window
    zeroes the counters through :meth:`WarmState.reset_stats`.
    """

    #: Cycles without a commit before declaring deadlock.
    DEADLOCK_WINDOW = 20_000

    def __init__(
        self,
        program: Program,
        trace: Trace,
        config: MachineConfig,
        fault_model: Optional[FaultModel] = None,
        warm: bool = False,
        observers: Sequence[Any] = (),
        warm_state: Optional[WarmState] = None,
        measure_from: Optional[int] = None,
        stop_after: Optional[int] = None,
    ) -> None:
        """
        Args:
            program: the static program (wrong-path fetch walks it).
            trace: dynamic trace from the functional emulator.
            config: machine configuration (Table 1 preset or variant).
            fault_model: optional soft-error injector.
            warm: build the memory hierarchy and predictors warm, by
                one :meth:`WarmState.warm_full` pass over the trace before
                timing starts.  The experiment harness enables this.
            observers: the stage-hook observers, in the order each
                hook calls them (e.g. the list
                :func:`repro.uarch.observe.build_observability` returns).
            warm_state: the :class:`WarmState` to run on, as it is
                (``warm`` is then ignored): the sampled engine hands every
                measurement interval a snapshot functionally
                fast-forwarded to the interval start.  ``None`` builds
                the pipeline its own.
            measure_from: trace seq whose commit opens the measurement
                window — all statistics (including cache/predictor/FU
                counters) are reset the moment it reaches commit, so
                the returned Stats cover only instructions from this
                seq on.  The sampled engine uses it to run detailed
                warm-up instructions ahead of a measurement interval
                without polluting its numbers.  ``None`` measures the
                whole run.
            stop_after: trace seq whose commit ends the run — younger
                trace instructions are fetched/executed (keeping the
                machine realistically busy behind the measured window)
                but never commit.  The sampled engine's drain padding:
                without it a measurement interval's tail could not
                overlap with successor work the way it does in a full
                run.  ``None`` runs the trace to completion.
        """
        self.program = program
        regs = _REGS.get(program)
        if regs is None:  # bound once per program
            regs = _REGS[program] = [(i.srcs(), i.dst()) for i in program]
        self._wrong_path_regs = regs
        self.trace = trace
        self.config = config
        self.fault_model = fault_model or NoFaults()
        # The quiet default never strikes: skip its per-completion query.
        self._sample_fault = (
            None if type(self.fault_model) is NoFaults
            else self.fault_model.sample
        )
        self.stats = Stats()

        self.fupool = FUPool(config)
        if warm_state is None:
            warm_state = WarmState(program, config)
            if warm:
                warm_state.warm_full(trace)
        self.warm_state = warm_state
        self.mem = warm_state.mem
        self.predictor = warm_state.predictor

        self.cycle = 0
        self._done = False
        self._next_seq = 0
        self._measure_from = measure_from
        self._stop_after = stop_after

        # Front end.
        self.ifq: Deque[_Entry] = deque()
        self.fetch_cursor = 0          # next trace index to fetch
        self.wp_active = False
        self.wp_index = -1             # static index for wrong-path fetch
        self.fetch_blocked_until = 0
        self._last_fetch_line = -1
        self._line_shift = config.mem.l1i.line_size.bit_length() - 1
        self._l1i_hit = config.mem.l1i.hit_latency
        self._l1d_hit = config.mem.l1d.hit_latency

        # Window.
        self.ruu: List[_Entry] = []
        self.lsq: List[_Entry] = []
        self.ready: List[_Entry] = []
        self.create: Dict[int, _Entry] = {}

        # Completion wheel: finish cycle -> the entries whose P (not yet
        # ``completed``) or R execution completes then, in scheduling
        # order.  Every latency is >= 1, so each event lands strictly
        # after the cycle that schedules it.
        self._wheel: Dict[int, list] = defaultdict(list)
        # REESE lag histograms, int-keyed while running (see _finalize).
        self._detect_latency: Dict[int, int] = {}
        self._rqueue_residency: Dict[int, int] = {}

        # Architectural progress.
        self.commit_seq = 0            # next trace seq expected to commit

        # REESE.  Zero-valued knobs are "auto": the R-stream Queue scales
        # with the RUU (paper §7 sizes it at "slightly more area than the
        # RUU") and R dispatch is bound by issue slots / functional units
        # rather than dedicated dequeue ports.
        reese = config.reese
        self.reese_on = reese.enabled
        rqueue_size = reese.rqueue_size or max(32, config.ruu_size)
        self.rqueue = RStreamQueue(rqueue_size) if self.reese_on else None
        self.retry = RetryTracker(reese.max_retry)
        self._r_high_water = rqueue_size - min(
            reese.high_water_margin, rqueue_size - 1
        )
        self._r_issue_width = reese.r_issue_width or config.issue_width
        # R latency per unit class: R loads always hit in L1 (§4.4).
        self._r_latency = {
            fu: self._l1d_hit if fu is _FU_MEM else max(1, latency)
            for fu, latency in self.fupool.latency.items()
        }

        # Dispatch-duplication comparison scheme (related work, §3).
        self.dup_on = config.dispatch_dup
        # Duty cycle: re-execute one instruction in every _duty_period.
        self._duty_period = max(1, round(1.0 / reese.r_duty_cycle))

        # Bound methods of the observers (never of the pipeline, see
        # run()); each stage loads the hooks it fires into locals.
        self.hooks = StageHooks(observers)
        for observer in observers:
            if hasattr(observer, "bind"):
                observer.bind(self)

    # ==================================================================
    # driver
    # ==================================================================

    def run(self, max_cycles: Optional[int] = None) -> Stats:
        """Simulate until every trace instruction has committed.

        Args:
            max_cycles: optional hard cap (for tests); the default cap
                scales with trace length as a runaway backstop.

        Returns:
            The populated :class:`~repro.uarch.stats.Stats`.

        Raises:
            SimulationDeadlockError: if no instruction commits for
                :data:`DEADLOCK_WINDOW` cycles.
            SimulationTimeoutError: the cycle cap ran out before every
                trace instruction committed (carries the partial Stats).
            UnrecoverableFaultError: REESE retry budget exhausted.
        """
        total = len(self.trace)
        if total == 0:
            return self._finalize()
        cap = max_cycles if max_cycles is not None else 400 * total + 100_000
        last_commit_cycle = 0
        last_committed = 0
        # Hoisted: fixed for the whole run (_begin_measurement zeroes
        # the Stats counters in place).  The stage variants are locals,
        # never instance attributes: a bound method stored on the
        # pipeline would make it part of a reference cycle.
        on_cycle = self.hooks.on_cycle
        stats = self.stats
        ifq = self.ifq
        window = self.DEADLOCK_WINDOW
        if self.reese_on:
            commit, issue = self._commit_reese, self._issue_reese
        else:
            commit = self._commit_dup if self.dup_on else self._commit_baseline
            issue = self._issue_p
        issue_width = self.config.issue_width

        while not self._done and self.cycle < cap:
            commit()
            self._writeback()
            issue(issue_width)
            self._dispatch()
            self._fetch()
            if on_cycle is not None:
                on_cycle(self)  # end-of-cycle state, pre-increment
            self.cycle += 1
            stats.cycles += 1
            if not ifq and not self.ruu and self.commit_seq >= total:
                self._done = True
            if stats.committed != last_committed:
                last_committed = stats.committed
                last_commit_cycle = self.cycle
            elif self.cycle - last_commit_cycle > window:
                raise SimulationDeadlockError(
                    f"no commit for {window} cycles at cycle "
                    f"{self.cycle} (commit_seq={self.commit_seq}/{total}, "
                    f"ruu={len(self.ruu)}, ifq={len(self.ifq)}, "
                    f"rqueue={len(self.rqueue) if self.rqueue else 0})"
                )
        if not self._done:
            raise SimulationTimeoutError(
                cap, self.stats.committed, total, self._finalize()
            )
        return self._finalize()

    def _begin_measurement(self) -> None:
        """Open the measurement window: zero every statistic in place.

        Fires once, when the ``measure_from`` instruction reaches
        commit.  Machine state (caches, predictor, queues, in-flight
        work) is untouched — only counters reset, so the Stats this run
        returns describe the measured window of a machine that was
        already realistically busy.
        """
        self._measure_from = None
        stats = self.stats
        for name in Stats._SUM_FIELDS:
            setattr(stats, name, 0)
        self._detect_latency.clear()
        self._rqueue_residency.clear()
        self.warm_state.reset_stats()
        for key in self.fupool.issues:
            self.fupool.issues[key] = 0
        reset = self.hooks.reset
        if reset is not None:
            reset()

    def _finalize(self) -> Stats:
        stats = self.stats
        stats.halted = self._done
        stats.bpred_accuracy = self.predictor.accuracy
        stats.fu_issues = dict(self.fupool.issues)
        # Str keys survive the JSON cache; first-seen key order is kept.
        stats.detect_latency = {
            str(lag): count for lag, count in self._detect_latency.items()
        }
        stats.rqueue_residency = {
            str(lag): count for lag, count in self._rqueue_residency.items()
        }
        stats.cache_stats = self.mem.stat_dict()
        finalize = self.hooks.finalize
        if finalize is not None:
            finalize(stats)
        return stats

    # ==================================================================
    # commit
    # ==================================================================

    def _commit_baseline(self) -> None:
        budget = self.config.commit_width
        ruu = self.ruu
        cycle = self.cycle
        stats = self.stats
        on_commit = self.hooks.on_commit
        while budget and ruu:
            head = ruu[0]
            if head.wrong_path or not head.completed:
                break
            trace_seq = head.trace_seq
            if trace_seq == self._measure_from:
                self._begin_measurement()
            if head.is_store:
                if self.fupool.acquire(_FU_MEM, cycle) is None:
                    break
                self.mem.daccess(head.dyn.ea, is_write=True)
            if on_commit is not None:
                on_commit(cycle, head)
            if head.p_fault_bit is not None:
                # No comparator: the corrupted result commits silently.
                stats.sdc_commits += 1
            stats.committed += 1
            self.commit_seq = trace_seq + 1
            ruu.pop(0)
            if head.is_mem:
                self.lsq.remove(head)
            if head.is_halt or trace_seq == self._stop_after:
                self._done = True
                return
            budget -= 1

    def _commit_dup(self) -> None:
        """Commit for the dispatch-duplication scheme.

        The RUU head holds the original; its duplicate sits right
        behind it.  Both must have completed; their (possibly
        fault-corrupted) results are compared and the instruction
        retires once.  A mismatch triggers the same flush-and-refetch
        recovery as REESE.  A store that finds no free memory port
        waits before its comparison, so each instruction is compared
        once.
        """
        budget = self.config.commit_width
        ruu = self.ruu
        lsq = self.lsq
        on_compare = self.hooks.on_compare
        on_commit = self.hooks.on_commit
        stats = self.stats
        cycle = self.cycle
        fupool = self.fupool
        while budget and ruu:
            head = ruu[0]
            if head.wrong_path or not head.completed:
                break
            shadow = head.shadow
            if shadow is not None and not shadow.completed:
                break
            trace_seq = head.trace_seq
            if trace_seq == self._measure_from:
                self._begin_measurement()
            if head.is_store and not fupool.available(_FU_MEM, cycle):
                break
            if shadow is not None:
                stats.comparisons += 1
                p_val = reese_p_value(head.dyn)
                if head.p_fault_bit is not None:
                    p_val = corrupt_value(p_val, head.p_fault_bit)
                r_val = reese_reexecute(head.dyn)
                if shadow.p_fault_bit is not None:
                    r_val = corrupt_value(r_val, shadow.p_fault_bit)
                match = values_equal(p_val, r_val)
                if on_compare is not None:
                    on_compare(cycle, head, match)
                if not match:
                    self._handle_detected_error(trace_seq)
                    return
                if (
                    head.p_fault_bit is not None
                    and shadow.p_fault_bit is not None
                ):
                    stats.errors_undetected_same_event += 1
            if head.is_store:
                fupool.acquire(_FU_MEM, cycle)
                self.mem.daccess(head.dyn.ea, is_write=True)
            self.retry.record_success(trace_seq)
            if on_commit is not None:
                on_commit(cycle, head)
            stats.committed += 1
            self.commit_seq = trace_seq + 1
            if head.is_halt or trace_seq == self._stop_after:
                self._done = True
            ruu.pop(0)
            if head.is_mem:
                lsq.remove(head)
            if shadow is not None:
                # The duplicate is adjacent: remove it too.
                if ruu and ruu[0] is shadow:
                    ruu.pop(0)
                else:  # pragma: no cover - defensive
                    ruu.remove(shadow)
                if shadow.is_mem:
                    lsq.remove(shadow)
            if self._done:
                return
            budget -= 1

    def _commit_reese(self) -> None:
        # Phase 1: final commit — compare and retire from the R-stream
        # Queue in program order (frees queue slots for phase 2).
        budget = self.config.commit_width
        rqueue = self.rqueue
        by_seq = rqueue.by_seq
        on_compare = self.hooks.on_compare
        on_commit = self.hooks.on_commit
        stats = self.stats
        cycle = self.cycle
        residency = self._rqueue_residency
        retry = self.retry
        fupool = self.fupool
        while budget:
            seq = self.commit_seq
            entry = by_seq.get(seq)
            if entry is None or entry.r_state != R_DONE:
                break
            if seq == self._measure_from:
                self._begin_measurement()
            is_store = entry.is_store
            # A store waits for a memory port before its comparison, so
            # each instruction is compared once.
            if is_store and not fupool.available(_FU_MEM, cycle):
                break
            if not entry.skip_r:
                stats.comparisons += 1
                p_val = entry.p_value
                r_val = entry.r_value
                if p_val is r_val:
                    match = True
                elif p_val.__class__ is int and r_val.__class__ is int:
                    match = p_val == r_val
                else:
                    match = values_equal(p_val, r_val)
                if on_compare is not None:
                    on_compare(cycle, entry, match)
                if not match:
                    self._handle_detected_error(seq)
                    return
                if (
                    entry.p_fault_bit is not None
                    and entry.r_fault_bit is not None
                ):
                    # Both corrupted identically inside one environmental
                    # event: comparison passes, the error escapes.
                    stats.errors_undetected_same_event += 1
            elif entry.p_fault_bit is not None:
                # Re-execution skipped (duty cycle): corruption escapes.
                stats.sdc_commits += 1
            if is_store:
                fupool.acquire(_FU_MEM, cycle)
                self.mem.daccess(entry.dyn.ea, is_write=True)
                self.lsq.remove(entry)
            del by_seq[seq]
            lag = cycle - entry.inserted_cycle
            residency[lag] = residency.get(lag, 0) + 1
            if seq == retry.seq:
                retry.record_success(seq)
            if on_commit is not None:
                on_commit(cycle, entry)
            stats.committed += 1
            self.commit_seq = seq + 1
            if entry.is_halt or seq == self._stop_after:
                self._done = True
                return
            budget -= 1

        # Phase 2: move completed P instructions from the RUU into the
        # R-stream Queue (program order; early_remove allows skipping
        # over incomplete older entries).  An early move must leave
        # enough free queue slots for every *older* unmoved instruction
        # — entries drain from the queue strictly in program order, so
        # filling it with younger entries would deadlock the oldest.
        moves = self.config.commit_width
        early = self.config.reese.early_remove
        ruu = self.ruu
        pending = rqueue.pending
        on_rqueue = self.hooks.on_rqueue
        bindings = comparator.BINDINGS
        free_slots = rqueue.capacity - len(by_seq)
        order = rqueue.total_inserted
        index = 0
        older_unmoved = 0
        while moves and index < len(ruu):
            entry = ruu[index]
            if entry.wrong_path:
                break
            if not entry.completed:
                if early:
                    older_unmoved += 1
                    index += 1
                    continue
                break
            if free_slots <= older_unmoved:
                stats.rqueue_full_events += 1
                break
            dyn = entry.dyn
            r_fu, kind, fn = bindings[dyn.op]
            if kind <= _CMP_COMPUTE:
                p_val = dyn.result
            elif kind == _CMP_BRANCH:
                p_val = 1 if dyn.taken else 0
            else:
                p_val = reese_p_value(dyn)
            fault_bit = entry.p_fault_bit
            if fault_bit is not None:
                p_val = corrupt_value(p_val, fault_bit)
            entry.p_value = p_val
            entry.r_fu = r_fu
            entry.r_kind = kind
            entry.r_fn = fn
            entry.inserted_cycle = cycle
            entry.order = order
            order += 1
            by_seq[entry.trace_seq] = entry
            if entry.skip_r:
                entry.r_state = R_DONE
            else:
                entry.r_state = R_WAITING
                pending[r_fu].append(entry)
            free_slots -= 1
            if on_rqueue is not None:
                on_rqueue(cycle, entry)
            stats.rqueue_moves += 1
            ruu.pop(index)
            if entry.is_load:
                self.lsq.remove(entry)
            # Stores keep their LSQ slot until the post-comparison commit:
            # the LSQ entry is the store buffer, and memory must not be
            # written before the R-stream verification passes (§4.3).
            moves -= 1
        rqueue.total_inserted = order

    def _handle_detected_error(self, trace_seq: int) -> None:
        self.stats.errors_detected += 1
        self.stats.recoveries += 1
        if self.retry.record_failure(trace_seq):
            self.stats.unrecoverable = True
            raise UnrecoverableFaultError(trace_seq, self.retry.failures)
        self._flush_all(refetch_cursor=trace_seq)

    def _flush_all(self, refetch_cursor: int) -> None:
        """Full pipeline + R-stream Queue flush (REESE error recovery)."""
        self.stats.squashed += len(self.ifq) + len(self.ruu)
        self.ifq.clear()
        for entry in self.ruu:
            entry.squashed = True
        self.ruu.clear()
        self.lsq.clear()
        self.ready.clear()
        self.create.clear()
        # Every pending completion now belongs to a squashed P entry or
        # a dropped R entry, so none of them can have any effect.
        self._wheel.clear()
        if self.rqueue is not None:
            self.rqueue.clear()
        self.wp_active = False
        self.wp_index = -1
        self.fetch_cursor = refetch_cursor
        self.fetch_blocked_until = self.cycle + 1
        self._last_fetch_line = -1
        # Last, with the machine already clean: observers (the
        # invariant checker in particular) see the post-flush state.
        on_recover = self.hooks.on_recover
        if on_recover is not None:
            on_recover(self.cycle)

    # ==================================================================
    # writeback
    # ==================================================================

    def _writeback(self) -> None:
        bucket = self._wheel.pop(self.cycle, None)
        if bucket is None:
            return
        cycle = self.cycle
        on_complete = self.hooks.on_complete
        on_r_complete = self.hooks.on_r_complete
        sample = self._sample_fault
        detect = self._detect_latency
        for event in bucket:
            if not event.completed:  # P completion
                if event.squashed:
                    continue
                event.completed = True
                if on_complete is not None:
                    on_complete(cycle, event)
                if sample is not None and event.dyn is not None:
                    bit = sample(cycle)
                    if bit is not None and reese_p_value(event.dyn) is not None:
                        event.p_fault_bit = bit
                consumers = event.consumers
                if consumers:
                    ready = self.ready
                    for consumer in consumers:
                        if consumer.squashed or consumer.issued:
                            continue
                        consumer.deps -= 1
                        if consumer.deps == 0:
                            ready.append(consumer)
                    event.consumers = []
                if event.mispredicted:
                    self._recover_mispredict(event)
            else:  # R completion: recompute from the stored operands
                lag = cycle - event.inserted_cycle
                detect[lag] = detect.get(lag, 0) + 1
                dyn = event.dyn
                kind = event.r_kind
                if kind == _CMP_COMPUTE:
                    r_val = event.r_fn(dyn.a, dyn.b, dyn.imm)
                elif kind == _CMP_LOAD:
                    r_val = dyn.result
                elif kind == _CMP_BRANCH:
                    r_val = 1 if event.r_fn(dyn.a, dyn.b) else 0
                else:
                    r_val = reese_reexecute(dyn)
                bit = None
                if sample is not None:
                    bit = sample(cycle)
                    if bit is not None:
                        if r_val is None:
                            bit = None
                        else:
                            r_val = corrupt_value(r_val, bit)
                event.r_fault_bit = bit
                event.r_value = r_val
                event.r_state = R_DONE
                if on_r_complete is not None:
                    on_r_complete(cycle, event)

    def _recover_mispredict(self, branch: _Entry) -> None:
        """Squash everything younger than a resolved mispredicted branch."""
        seq = branch.seq
        squashed = len(self.ifq)
        self.ifq.clear()
        survivors: List[_Entry] = []
        # The branch's own duplicate (dispatch-dup scheme) is younger by
        # one sequence number but belongs to the branch: keep it.
        keep = branch.shadow
        on_squash = self.hooks.on_squash
        for entry in self.ruu:
            if entry.seq > seq and entry is not keep:
                entry.squashed = True
                squashed += 1
                if on_squash is not None:
                    on_squash(self.cycle, entry)
            else:
                survivors.append(entry)
        self.ruu = survivors
        self.lsq = [
            entry for entry in self.lsq
            if entry.seq <= seq or entry is keep
        ]
        self.ready = [
            entry for entry in self.ready
            if entry.seq <= seq or entry is keep
        ]
        # Rebuild the create vector from surviving in-flight producers.
        self.create.clear()
        for entry in self.ruu:
            if entry.dst >= 0 and not entry.completed:
                self.create[entry.dst] = entry
        self.stats.squashed += squashed
        # Redirect fetch to the correct path.
        self.wp_active = False
        self.wp_index = -1
        self.fetch_cursor = branch.recover_cursor
        self.fetch_blocked_until = max(self.fetch_blocked_until, self.cycle + 1)
        self._last_fetch_line = -1
        branch.mispredicted = False

    # ==================================================================
    # issue
    # ==================================================================

    def _issue_reese(self, budget: int) -> None:
        r_budget = self._r_issue_width
        if len(self.rqueue.by_seq) >= self._r_high_water:
            before = min(budget, r_budget)
            issued = before - self._issue_r(before)
            budget -= issued
            r_budget -= issued
        budget = self._issue_p(budget)
        if budget and r_budget:
            self._issue_r(min(budget, r_budget))

    def _issue_p(self, budget: int) -> int:
        ready = self.ready
        if not budget or not ready:
            return budget
        ready.sort(key=_by_seq)
        leftover: List[_Entry] = []
        cycle = self.cycle
        on_issue = self.hooks.on_issue
        on_fu_block = self.hooks.on_fu_block
        stats = self.stats
        exhausted = self.fupool.exhausted
        acquire = self.fupool.acquire
        wheel = self._wheel
        for entry in ready:
            if entry.squashed or entry.issued:
                continue
            if not budget:
                leftover.append(entry)
                continue
            if entry.is_store:
                # Stores need no FU: address+data merge into the LSQ entry.
                latency = 1
            elif entry.is_load:
                dyn = entry.dyn
                ea = dyn.ea if dyn is not None else None
                forward = False
                for older in self.lsq:
                    if older is entry:
                        break
                    if not older.is_store:
                        continue
                    if not older.completed:
                        forward = None  # older store address unknown
                        break
                    older_dyn = older.dyn
                    if (
                        ea is not None
                        and older_dyn is not None
                        and older_dyn.ea is not None
                        and (older_dyn.ea & ~3) == (ea & ~3)
                    ):
                        forward = True  # youngest older match wins
                if forward is None:
                    leftover.append(entry)  # blocked behind the store
                    continue
                if forward:
                    stats.load_forwards += 1
                    latency = 1  # store-to-load forwarding inside the LSQ
                elif (
                    exhausted[_FU_MEM][0] == cycle
                    or acquire(_FU_MEM, cycle, entry.is_shadow) is None
                ):
                    if on_fu_block is not None:
                        on_fu_block(cycle, _FU_MEM, entry.is_shadow)
                    leftover.append(entry)
                    continue
                elif entry.wrong_path or ea is None:
                    latency = self._l1d_hit  # no cache state pollution
                else:
                    latency = max(1, self.mem.daccess(ea, is_write=False))
            else:
                fu = entry.fu
                grant = (
                    None if exhausted[fu][0] == cycle
                    else acquire(fu, cycle, entry.is_shadow)
                )
                if grant is None:
                    if on_fu_block is not None:
                        on_fu_block(cycle, fu, entry.is_shadow)
                    leftover.append(entry)
                    continue
                latency = grant if grant > 1 else 1
            entry.issued = True
            wheel[cycle + latency].append(entry)
            if on_issue is not None:
                on_issue(cycle, entry)
            stats.issued += 1
            if entry.wrong_path:
                stats.issued_wrong_path += 1
            if entry.is_shadow:
                stats.issued_r += 1  # redundant copy (dispatch dup)
            budget -= 1
        self.ready = leftover
        return budget

    def _issue_r(self, budget: int) -> int:
        """Issue R-stream entries oldest-first into idle units.

        Merges the heads of the R-stream Queue's per-class FIFOs by
        insertion order, granting each run of a class's entries older
        than every other class's head with one :meth:`FUPool.acquire_r`,
        and drops a class once its pool is exhausted this cycle: the
        entries issued, and their order, are those of one
        insertion-order scan that skips every entry whose unit is busy.
        With an ``on_fu_block`` observer, every blocked entry that scan
        would have visited (each one older than the last issue, or all of
        them if the budget outlasted the queue) is charged once.
        """
        if not budget:
            return budget
        live = list(filter(None, self.rqueue.pending.values()))
        if not live:
            return budget
        on_fu_block = self.hooks.on_fu_block
        blocked: List[Deque[_Entry]] = []
        cycle = self.cycle
        exhausted = self.fupool.exhausted
        acquire_r = self.fupool.acquire_r
        r_latency = self._r_latency
        on_r_issue = self.hooks.on_r_issue
        stats = self.stats
        wheel = self._wheel
        last = -1
        while live:
            # The oldest head across the FIFOs, and the next-oldest head
            # (the end of the oldest one's run).
            fifo = live[0]
            oldest = fifo[0].order
            bound = -1
            for other in live:
                head = other[0].order
                if head < oldest:
                    fifo, oldest, bound = other, head, oldest
                elif head > oldest and (bound < 0 or head < bound):
                    bound = head
            fu = fifo[0].r_fu
            want = 1
            limit = min(budget, len(fifo))
            if bound < 0:
                want = limit
            else:
                while want < limit and fifo[want].order < bound:
                    want += 1
            granted = (
                0 if exhausted[fu][0] == cycle else acquire_r(fu, cycle, want)
            )
            if granted:
                bucket = wheel[cycle + r_latency[fu]]
                popleft = fifo.popleft
                for _ in range(granted):
                    entry = popleft()
                    entry.r_state = R_ISSUED
                    bucket.append(entry)
                    if on_r_issue is not None:
                        on_r_issue(cycle, entry)
                stats.issued_r += granted
                last = entry.order
                budget -= granted
                if not budget:
                    break
            if granted < want:  # FU busy: skip — R entries are independent.
                live.remove(fifo)
                if on_fu_block is not None:
                    blocked.append(fifo)
            elif not fifo:
                live.remove(fifo)
        for fifo in blocked:
            for entry in fifo:
                if not budget and entry.order > last:
                    break
                on_fu_block(cycle, entry.r_fu, True)
        return budget

    # ==================================================================
    # dispatch
    # ==================================================================

    def _dispatch(self) -> None:
        ifq = self.ifq
        if not ifq:
            return
        budget = self.config.decode_width
        ruu = self.ruu
        lsq = self.lsq
        ready = self.ready
        create = self.create
        stats = self.stats
        on_dispatch = self.hooks.on_dispatch
        cycle = self.cycle
        dup_on = self.dup_on
        ruu_room = self.config.ruu_size - len(ruu)
        lsq_room = self.config.lsq_size - len(lsq)
        while budget and ifq:
            entry = ifq[0]
            duplicate = (
                dup_on
                and not entry.is_shadow
                and not entry.wrong_path
                and entry.fu is not _FU_NONE
                and not entry.is_halt
            )
            slots_needed = 2 if duplicate else 1
            if ruu_room < slots_needed:
                stats.ruu_full_events += 1
                break
            if entry.is_mem and lsq_room < slots_needed:
                stats.lsq_full_events += 1
                break
            if duplicate and budget < 2:
                break  # original and duplicate dispatch together
            ifq.popleft()
            if duplicate:
                # The duplicate shares its original's age: squash and
                # issue-priority decisions treat the pair as one
                # instruction.  It produces nothing architectural, and
                # it dispatches next, into the slots reserved above.
                shadow = entry.shadow = _Entry(entry.seq, entry.dyn)
                shadow.dst = -1
                shadow.is_shadow = True
                ifq.appendleft(shadow)
            if on_dispatch is not None:
                on_dispatch(cycle, entry)
            # Rename: wait on each in-flight producer of a source.
            deps = 0
            for src in entry.srcs:
                producer = create.get(src)
                if (
                    producer is not None
                    and not producer.completed
                    and not producer.squashed
                ):
                    deps += 1
                    producer.consumers.append(entry)
            entry.deps = deps
            if entry.dst >= 0:
                create[entry.dst] = entry
            ruu.append(entry)
            ruu_room -= 1
            if entry.is_mem:
                lsq.append(entry)
                lsq_room -= 1
            stats.dispatched += 1
            if entry.wrong_path:
                stats.dispatched_wrong_path += 1
            if entry.fu is _FU_NONE:
                # nop/halt: no execution; completes next cycle.
                entry.issued = True
                self._wheel[cycle + 1].append(entry)
            elif deps == 0:
                ready.append(entry)
            budget -= 1

    # ==================================================================
    # fetch
    # ==================================================================

    def _fetch(self) -> None:
        cycle = self.cycle
        ifq = self.ifq
        room = self.config.fetch_queue_size - len(ifq)
        if self.fetch_blocked_until > cycle or room <= 0:
            return
        budget = min(self.config.fetch_width, room)
        trace = self.trace
        total = len(trace)
        stats = self.stats
        on_fetch = self.hooks.on_fetch
        reese_on = self.reese_on
        line_shift = self._line_shift
        l1i_hit = self._l1i_hit
        next_seq = self._next_seq
        duty_period = self._duty_period
        wrong_path_regs = self._wrong_path_regs
        while budget:
            if self.wp_active:
                index = self.wp_index
                code = self.program.code
                if index < 0 or index >= len(code):
                    break  # wrong-path fetch has nowhere to go: stall
                inst = code[index]
                entry = _Entry(next_seq, None, inst, wrong_path_regs[index])
                next_seq += 1
                stats.fetched_wrong_path += 1
                # Walk the wrong path by predictor direction / direct
                # targets.
                op = inst.op
                info = OPINFO[op]
                if info.is_halt:
                    self.wp_index = -1
                elif info.is_cond_branch:
                    pc = TEXT_BASE + index * INST_SIZE
                    taken = self.predictor.predict(pc)  # consult, never train
                    self.wp_index = inst.imm if taken else index + 1
                elif op is _J or op is _JAL:
                    self.wp_index = inst.imm
                elif op is _JR or op is _JALR:
                    self.wp_index = -1  # indirect target unknown here
                else:
                    self.wp_index = index + 1
            else:
                cursor = self.fetch_cursor
                if cursor >= total:
                    break
                dyn = trace[cursor]
                # Instruction-cache probe (one access per line).
                line = dyn.pc >> line_shift
                if line != self._last_fetch_line:
                    self._last_fetch_line = line
                    latency = self.mem.ifetch(dyn.pc)
                    if latency > l1i_hit:
                        # Miss: fetch stalls for the extra cycles.
                        self.fetch_blocked_until = cycle + (latency - l1i_hit)
                        break
                entry = _Entry(next_seq, dyn)
                next_seq += 1
                stats.fetched += 1
                if dyn.is_load:
                    stats.loads += 1
                elif dyn.is_store:
                    stats.stores += 1
                if reese_on:
                    if entry.fu is _FU_NONE or entry.is_halt:
                        entry.skip_r = True
                    elif dyn.seq % duty_period:
                        entry.skip_r = True
                        stats.r_skipped_duty += 1
                if dyn.is_branch:
                    stats.branches += 1
                    if dyn.is_cond_branch:
                        stats.cond_branches += 1
                    predicted = self.warm_state.predict_next(dyn)
                    if predicted == dyn.next_index:
                        self.fetch_cursor = cursor + 1
                    else:
                        stats.mispredictions += 1
                        entry.mispredicted = True
                        entry.recover_cursor = cursor + 1
                        self.wp_active = True
                        self.wp_index = predicted  # -1 stalls wrong-path fetch
                        self._last_fetch_line = -1
                else:
                    self.fetch_cursor = cursor + 1
            ifq.append(entry)
            if on_fetch is not None:
                on_fetch(cycle, entry)
            budget -= 1
        self._next_seq = next_seq
