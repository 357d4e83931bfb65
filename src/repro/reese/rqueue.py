"""The R-stream Queue — REESE's central hardware structure.

Completed P-stream instructions leave the pipeline (the RUU) into this
queue, carrying their **operands and result** (paper §4.3: "An entry in
the R-stream Queue stores much more than just the instruction.  It
keeps the values of the instruction operands and the result of the
operation").  From here they are re-issued to idle functional units as
R-stream instructions; when the R execution completes, its result is
compared against the stored P result and, on a match, the instruction
finally commits architecturally.

The queue's default capacity is 32 entries (the paper's "initial
maximum").  When it is full, completed P instructions cannot leave the
RUU, which backs pressure up into dispatch — the only way the R-stream
Queue can inhibit the P stream (paper §4.3).

With the ``early_remove`` optimisation, instructions may enter the
queue out of program order (as soon as they complete), so the queue
tracks pending *issue* in insertion order while *commitment* remains in
program order via sequence-number lookup.

Entries waiting for R issue sit in one FIFO per functional-unit class
(:attr:`RStreamQueue.pending`), each entry stamped with its insertion
number (:attr:`REntry.order`).  The issue stage merges the FIFO heads
oldest-first and drops a class once its unit pool is exhausted for the
cycle, which visits the same entries in the same order as one scan over
all waiting entries in insertion order, without building that list.
"""

from __future__ import annotations

from collections import deque
from operator import attrgetter
from typing import Deque, Dict, Iterable, List, Optional

from ..arch.trace import DynInst
from ..isa.instructions import FUClass

# R-entry states.
R_WAITING = 0   # in queue, not yet issued to a functional unit
R_ISSUED = 1    # executing redundantly
R_DONE = 2      # R result available (or re-execution skipped)

_by_order = attrgetter("order")


class REntry:
    """One R-stream Queue entry: an instruction awaiting verification."""

    __slots__ = (
        "seq",           # program-order sequence number (trace index)
        "dyn",           # the DynInst (operands, immediates, trace results)
        "p_value",       # P-stream comparable value (possibly fault-corrupted)
        "r_value",       # R-stream comparable value, set at R completion
        "state",
        "skip_r",        # True when re-execution is skipped (nop/halt/duty)
        "fu",            # FUClass the R execution uses
        "order",         # insertion number (the R-issue merge order)
        "inserted_cycle",
        "p_fault_bit",   # bit flipped in the P value by a fault, or None
        "r_fault_bit",   # bit flipped in the R value by a fault, or None
        "lsq_entry",     # stores: LSQ slot held until post-comparison commit
    )

    def __init__(
        self,
        seq: int,
        dyn: DynInst,
        p_value,
        fu: FUClass,
        inserted_cycle: int,
        skip_r: bool = False,
    ) -> None:
        self.seq = seq
        self.dyn = dyn
        self.p_value = p_value
        self.r_value = None
        self.state = R_DONE if skip_r else R_WAITING
        self.skip_r = skip_r
        self.fu = fu
        self.order = -1
        self.inserted_cycle = inserted_cycle
        self.p_fault_bit: Optional[int] = None
        self.r_fault_bit: Optional[int] = None
        self.lsq_entry = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<REntry seq={self.seq} {self.dyn.op.name} state={self.state}>"


class RStreamQueue:
    """Bounded queue of :class:`REntry` with FIFO issue, in-order commit."""

    def __init__(self, capacity: int = 32) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._by_seq: Dict[int, REntry] = {}
        #: FUClass -> entries awaiting R issue, in insertion order.
        self.pending: Dict[FUClass, Deque[REntry]] = {}
        self.total_inserted = 0

    # -- capacity ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._by_seq)

    @property
    def full(self) -> bool:
        return len(self._by_seq) >= self.capacity

    @property
    def free_slots(self) -> int:
        return self.capacity - len(self._by_seq)

    # -- insertion (from the RUU) ------------------------------------------

    def push(self, entry: REntry) -> None:
        """Insert a completed P instruction.

        Raises:
            OverflowError: if the queue is full (callers must check
                :attr:`full`; a full queue stalls the RUU instead).
        """
        by_seq = self._by_seq
        if len(by_seq) >= self.capacity:
            raise OverflowError("R-stream Queue is full")
        if entry.seq in by_seq:
            raise ValueError(f"duplicate sequence number {entry.seq}")
        by_seq[entry.seq] = entry
        entry.order = self.total_inserted
        if entry.state == R_WAITING:
            fifo = self.pending.get(entry.fu)
            if fifo is None:
                fifo = self.pending[entry.fu] = deque()
            fifo.append(entry)
        self.total_inserted += 1

    # -- R-stream issue ------------------------------------------------------

    def peek_unissued(self) -> Optional[REntry]:
        """The next entry awaiting R-stream issue (insertion order)."""
        heads = [fifo[0] for fifo in self.pending.values() if fifo]
        return min(heads, key=_by_order) if heads else None

    def waiting_entries(self) -> List[REntry]:
        """Entries awaiting issue, in insertion order (a snapshot).

        R-stream instructions carry their operands, so they have no
        dependences on one another; the issue stage may skip an entry
        whose functional unit is busy and issue a younger one (final
        commitment stays in program order regardless).  The issue stage
        itself merges the per-class FIFOs of :attr:`pending` in place.
        """
        waiting = [entry for fifo in self.pending.values() for entry in fifo]
        waiting.sort(key=_by_order)
        return waiting

    def mark_issued(self, entry: REntry) -> None:
        """Transition a waiting entry to ISSUED, leaving its FIFO."""
        fifo = self.pending.get(entry.fu, ())
        if entry.state != R_WAITING or entry not in fifo:
            raise ValueError(f"entry {entry.seq} is not waiting")
        fifo.remove(entry)
        entry.state = R_ISSUED

    # -- commitment -----------------------------------------------------------

    def committable(self, seq: int) -> Optional[REntry]:
        """The entry for program-order position ``seq`` if it is DONE."""
        entry = self._by_seq.get(seq)
        if entry is not None and entry.state == R_DONE:
            return entry
        return None

    def pop(self, seq: int) -> REntry:
        """Remove and return the entry at ``seq`` (final commit)."""
        return self._by_seq.pop(seq)

    def contains(self, seq: int) -> bool:
        return seq in self._by_seq

    def get(self, seq: int) -> Optional[REntry]:
        """The live entry at ``seq``, or ``None`` (any state)."""
        return self._by_seq.get(seq)

    # -- introspection -----------------------------------------------------

    def validate(self) -> List[str]:
        """Internal-consistency audit for the runtime invariant checker.

        Returns a list of problem descriptions (empty when healthy):
        occupancy within capacity, the seq index keyed correctly, entry
        states legal, and every entry pending issue live, in
        ``R_WAITING`` state and in its own class's FIFO.
        """
        problems: List[str] = []
        if len(self._by_seq) > self.capacity:
            problems.append(
                f"occupancy {len(self._by_seq)} exceeds capacity "
                f"{self.capacity}"
            )
        for seq, entry in self._by_seq.items():
            if entry.seq != seq:
                problems.append(
                    f"entry keyed at {seq} carries seq {entry.seq}"
                )
            if entry.state not in (R_WAITING, R_ISSUED, R_DONE):
                problems.append(
                    f"entry {seq} has illegal state {entry.state!r}"
                )
            if entry.skip_r and entry.state != R_DONE:
                problems.append(
                    f"entry {seq} skips re-execution but is not DONE"
                )
        for fu, fifo in self.pending.items():
            for entry in fifo:
                if (
                    self._by_seq.get(entry.seq) is not entry
                    or entry.state != R_WAITING
                    or entry.fu != fu
                ):
                    problems.append(
                        f"pending-issue entry {entry.seq} is not a live "
                        f"WAITING {fu!r} entry"
                    )
        return problems

    # -- flush -------------------------------------------------------------------

    def clear(self) -> int:
        """Drop every entry (error recovery); returns how many were dropped."""
        dropped = len(self._by_seq)
        self._by_seq.clear()
        for fifo in self.pending.values():
            fifo.clear()
        return dropped

    def entries(self) -> Iterable[REntry]:
        """Live entries in program order (for tests and introspection)."""
        return (self._by_seq[seq] for seq in sorted(self._by_seq))
