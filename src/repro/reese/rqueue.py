"""The R-stream Queue — REESE's central hardware structure.

Completed P-stream instructions leave the pipeline (the RUU) into this
queue, carrying their **operands and result** (paper §4.3: "An entry in
the R-stream Queue stores much more than just the instruction.  It
keeps the values of the instruction operands and the result of the
operation").  From here they are re-issued to idle functional units as
R-stream instructions; when the R execution completes, its result is
compared against the stored P result and, on a match, the instruction
finally commits architecturally.

An entry is the pipeline's own in-flight entry, the one that left the
RUU: it gains the P comparable ``p_value``, the R unit ``r_fu``, the
state ``r_state`` and the insertion number ``order`` on insertion, and
``r_value`` at R completion.  The pipeline performs the hot queue
operations (insertion, R issue, final commit) on :attr:`by_seq` and
:attr:`pending` directly; this class holds that state and its checks.

The default capacity is 32 entries (the paper's "initial maximum").  A
full queue keeps completed P instructions in the RUU, which backs
pressure up into dispatch — the only way the R-stream Queue can inhibit
the P stream (paper §4.3).  With ``early_remove``, instructions may
enter out of program order, so *issue* follows insertion order while
*commitment* stays in program order via sequence-number lookup.

Entries waiting for R issue sit in one FIFO per functional-unit class
(:attr:`pending`).  R-stream instructions carry their operands, so they
have no dependences on one another: the issue stage merges the FIFO
heads oldest-first and drops a class once its unit pool is exhausted
for the cycle, which visits the same entries in the same order as one
insertion-order scan over all waiting entries that skips each one whose
unit is busy.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List

from ..isa.instructions import FUClass

# R-entry states.
R_WAITING = 0   # in queue, not yet issued to a functional unit
R_ISSUED = 1    # executing redundantly
R_DONE = 2      # R result available (or re-execution skipped)


class RStreamQueue:
    """Bounded queue of R-stream entries: FIFO issue, in-order commit."""

    def __init__(self, capacity: int = 32) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        #: Program-order position (trace seq) -> live entry, any state.
        self.by_seq: Dict[int, object] = {}
        #: FUClass -> entries awaiting R issue, in insertion order.
        self.pending: Dict[FUClass, Deque] = {
            fu: deque() for fu in FUClass if fu is not FUClass.NONE
        }
        #: Insertion numbers handed out so far (the next entry's ``order``).
        self.total_inserted = 0

    def __len__(self) -> int:
        return len(self.by_seq)

    def validate(self) -> List[str]:
        """Internal-consistency audit for the runtime invariant checker.

        Returns a list of problem descriptions (empty when healthy):
        occupancy within capacity, the seq index keyed correctly, entry
        states legal, and every entry pending issue live, in
        ``R_WAITING`` state and in its own class's FIFO, in insertion
        order.
        """
        problems: List[str] = []
        by_seq = self.by_seq
        if len(by_seq) > self.capacity:
            problems.append(
                f"occupancy {len(by_seq)} exceeds capacity {self.capacity}"
            )
        for seq, entry in by_seq.items():
            if entry.trace_seq != seq:
                problems.append(
                    f"entry keyed at {seq} carries seq {entry.trace_seq}"
                )
            if entry.r_state not in (R_WAITING, R_ISSUED, R_DONE):
                problems.append(
                    f"entry {seq} has illegal state {entry.r_state!r}"
                )
            if entry.skip_r and entry.r_state != R_DONE:
                problems.append(
                    f"entry {seq} skips re-execution but is not DONE"
                )
        for fu, fifo in self.pending.items():
            previous = -1
            for entry in fifo:
                if (
                    by_seq.get(entry.trace_seq) is not entry
                    or entry.r_state != R_WAITING
                    or entry.r_fu != fu
                ):
                    problems.append(
                        f"pending-issue entry {entry.trace_seq} is not a "
                        f"live WAITING {fu!r} entry"
                    )
                if entry.order <= previous:
                    problems.append(
                        f"{fu!r} FIFO out of insertion order at entry "
                        f"{entry.trace_seq}"
                    )
                previous = entry.order
        return problems

    def clear(self) -> int:
        """Drop every entry (error recovery); returns how many were dropped."""
        dropped = len(self.by_seq)
        self.by_seq.clear()
        for fifo in self.pending.values():
            fifo.clear()
        return dropped
