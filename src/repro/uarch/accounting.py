"""Top-down cycle accounting: charge every issue slot to one cause.

The paper attributes REESE's 11-16 % slowdown to R-stream contention
for issue slots and functional units (§6, Fig. 2-5) but never shows
the ledger.  This module is that ledger: with profiling enabled the
pipeline charges **every issue slot of every cycle** to exactly one
cause, and every cycle to "active" or one stall reason, via a priority
cascade evaluated at end of cycle.  Summed over a run the two accounts
obey hard identities —

* slot account:  ``sum(slots.values()) == issue_width * cycles``
* cycle account: ``sum(cycles.values()) == cycles``

— which the property suite pins (no slot uncharged, none charged
twice), so an attribution report can never silently drop cycles.

Cause taxonomy (slot account)
-----------------------------

===================== =============================================
``issued_p``          slot did useful work: correct-path P issue
``issued_wp``         slot issued a wrong-path instruction
``issued_r``          slot issued R-stream work (REESE re-execution
                      or dispatch-dup shadow copy)
``recovery``          compare-mismatch flush this cycle, or refill
                      shadow of one (until P work issues again)
``fu_busy_r``         slot idle because a functional unit was busy
                      and the R stream was involved — R work blocked,
                      or P work blocked by an R-held unit
``fu_busy_p``         slot idle because P work was blocked by a
                      P-held functional unit
``rqueue_backpressure`` R-stream Queue full: completed P work cannot
                      leave the RUU, stalling the window
``ruu_full``          dispatch blocked on RUU capacity
``lsq_full``          dispatch blocked on LSQ capacity
``operands_not_ready`` window holds unissued correct-path work whose
                      operands (or older store addresses) are pending
``ifq_empty_mispredict`` frontend refilling after a mispredict, or
                      window holds only wrong-path work
``fetch_starved``     frontend cannot supply work (I-cache miss
                      stall, or fetch/dispatch latency bubble)
``r_drain``           trace exhausted; only the R-stream Queue still
                      holds work (REESE end-of-run drain)
``idle``              nothing to do (trace exhausted, machine empty)
===================== =============================================

The cascade charges unused slots in the order listed: recovery first,
then FU conflicts (R before P — when both streams are blocked the
machine would not even have the conflict without REESE, so the tie
goes to the R stream), then backpressure/capacity causes oldest-first
(a full R-queue clogs the RUU which clogs dispatch, so the queue is
blamed before the structures behind it), then dataflow, then frontend
causes.  One cause per slot, no remainder.

R-attributable causes — ``issued_r``, ``recovery``, ``fu_busy_r``,
``rqueue_backpressure``, ``r_drain`` — are the paper's "contention"
buckets; :func:`r_share_of_delta` computes their share of a
REESE-minus-baseline slot delta.

The accountant records no fact the pipeline already counts: issue
counts, dispatch blocks, R-queue backpressure and recovery flushes are
per-cycle deltas of the always-on ``Stats`` counters.  Only the two
facts no counter carries arrive through stage hooks of their own:
``on_fu_block`` (the stream to blame for a failed FU acquire) and
``on_mispredict`` (the start of a mispredict refill).  The accountant
is an ordinary pipeline observer (:class:`~repro.uarch.pipeline.Pipeline`
``observers``), attached by ``ObserveConfig(profile=True)``.

Sampled-mode aggregation: every measurement interval produces its own
account (reset with the other Stats at ``measure_from``), and
:func:`~repro.uarch.stats.merge_accounting` sums them — the identities
survive summation because each interval satisfies them individually.

Everything here is plain integers and dicts: JSON-serialisable, so
accounts ride the on-disk result cache inside ``Stats.accounting``.
"""

from __future__ import annotations

from operator import attrgetter, sub
from typing import Any, Dict, List, Optional, Tuple

#: Schema tag stored in every account dict (bump on layout change).
#: v2: the detection-lag histograms moved out to ``Stats``.
ACCOUNTING_SCHEMA_VERSION = 2

#: Slot-account causes, cascade priority order (issued slots first).
SLOT_CAUSES = (
    "issued_p",
    "issued_wp",
    "issued_r",
    "recovery",
    "fu_busy_r",
    "fu_busy_p",
    "rqueue_backpressure",
    "ruu_full",
    "lsq_full",
    "operands_not_ready",
    "ifq_empty_mispredict",
    "fetch_starved",
    "r_drain",
    "idle",
)

#: Cycle-account causes ("active" plus the stall reasons).
CYCLE_CAUSES = ("active",) + SLOT_CAUSES[3:]

#: Causes the paper attributes to the R stream (§6): slots doing R
#: work, slots lost to R-induced FU conflicts, R-queue backpressure,
#: compare/flush recovery and the end-of-run queue drain.
R_CAUSES = frozenset(
    ("issued_r", "recovery", "fu_busy_r", "rqueue_backpressure", "r_drain")
)


#: The ``Stats`` counters :meth:`CycleAccountant.on_cycle` settles from.
_COUNTERS = attrgetter(
    "issued", "issued_wrong_path", "issued_r", "rqueue_full_events",
    "ruu_full_events", "lsq_full_events", "recoveries", "committed",
)
_ZERO_COUNTERS = (0,) * 8


class CycleAccountant:
    """Per-cycle slot/cycle attribution state for one pipeline.

    :meth:`on_cycle`, called at end of cycle, settles the cascade from
    how the ``Stats`` counters moved this cycle and resets the FU blame
    notes of :meth:`on_fu_block`.
    """

    __slots__ = (
        "width",
        "_dup",
        "_fupool",
        "slots",
        "cycles",
        "cycles_total",
        "_refill",
        "_last",           # _COUNTERS at the end of the previous cycle
        # Per-cycle FU blame counts, reset by on_cycle().
        "cyc_fu_block_p",
        "cyc_fu_block_r",
    )

    def __init__(self) -> None:
        self.width = 0
        self._dup = False
        self._fupool = None
        self.slots: Dict[str, int] = {cause: 0 for cause in SLOT_CAUSES}
        self.cycles: Dict[str, int] = {cause: 0 for cause in CYCLE_CAUSES}
        self.cycles_total = 0
        self._refill: Optional[str] = None
        self._last = _ZERO_COUNTERS
        self.cyc_fu_block_p = 0
        self.cyc_fu_block_r = 0

    def bind(self, pipe) -> None:
        """Attach to a pipeline: its issue width, whether ``issued``
        counts dispatch-dup shadow copies, and the FU pool to blame,
        which starts recording the stream that holds each unit."""
        self.width = pipe.config.issue_width
        self._dup = pipe.config.dispatch_dup
        self._fupool = pipe.fupool
        pipe.fupool.track_streams = True

    def reset(self) -> None:
        """Zero the account (the ``measure_from`` window open).

        The pipeline zeroes its ``Stats`` counters at the same moment.
        """
        self.slots = {cause: 0 for cause in SLOT_CAUSES}
        self.cycles = {cause: 0 for cause in CYCLE_CAUSES}
        self.cycles_total = 0
        self._last = _ZERO_COUNTERS
        # Sticky refill state survives: a flush straddling the window
        # boundary still shadows the first measured cycles.

    # -- stage hooks -----------------------------------------------------

    def on_fu_block(self, cycle: int, fu_class, r_work: bool) -> None:
        """A ready instruction found every unit of ``fu_class`` busy.

        Blamed on the R stream when the blocked instruction is R-stream
        work (``r_work``) or an R-stream issue holds one of the busy
        units (:meth:`FUPool.blame`).
        """
        if r_work or self._fupool.blame(fu_class, cycle) == "R":
            self.cyc_fu_block_r += 1
        else:
            self.cyc_fu_block_p += 1

    def on_mispredict(self, cycle: int, branch) -> None:
        """Mispredict recovery: fetch redirected to the correct path."""
        if self._refill != "recovery":
            self._refill = "mispredict"

    # -- end-of-cycle settlement ----------------------------------------

    def on_cycle(self, pipe) -> None:
        """Charge this cycle's slots and cycle cause; reset the notes."""
        now = _COUNTERS(pipe.stats)
        (issued, issued_wp, issued_r, rqueue_full, ruu_full, lsq_full,
         recoveries, committed) = map(sub, now, self._last)
        self._last = now
        # Under dispatch-dup ``issued`` also counts the shadow copies,
        # which ``issued_r`` counts too.
        issued_p = issued - issued_wp - (issued_r if self._dup else 0)
        if recoveries:
            self._refill = "recovery"  # compare-mismatch flush

        slots = self.slots
        slots["issued_p"] += issued_p
        slots["issued_wp"] += issued_wp
        slots["issued_r"] += issued_r
        unused = self.width - issued_p - issued_wp - issued_r
        first_cause: Optional[str] = None

        if unused > 0:
            if self._refill == "recovery":
                slots["recovery"] += unused
                first_cause = "recovery"
            else:
                remaining = unused
                blocked_r = min(remaining, self.cyc_fu_block_r)
                if blocked_r:
                    slots["fu_busy_r"] += blocked_r
                    remaining -= blocked_r
                    first_cause = "fu_busy_r"
                blocked_p = min(remaining, self.cyc_fu_block_p)
                if blocked_p:
                    slots["fu_busy_p"] += blocked_p
                    remaining -= blocked_p
                    if first_cause is None:
                        first_cause = "fu_busy_p"
                if remaining:
                    if rqueue_full:
                        cause = "rqueue_backpressure"
                    elif ruu_full:
                        cause = "ruu_full"
                    elif lsq_full:
                        cause = "lsq_full"
                    else:
                        cause = self._residual_cause(pipe)
                    slots[cause] += remaining
                    if first_cause is None:
                        first_cause = cause

        if issued_p or issued_wp or issued_r or committed:
            self.cycles["active"] += 1
        else:
            self.cycles[first_cause or "idle"] += 1
        self.cycles_total += 1

        if issued_p:
            # Correct-path work issued again: the refill shadow ends.
            self._refill = None
        self.cyc_fu_block_p = 0
        self.cyc_fu_block_r = 0

    def _residual_cause(self, pipe) -> str:
        """The cause charged for leftover slots when neither the R-queue
        nor dispatch was blocked this cycle."""
        has_unready_wp = False
        for entry in pipe.ruu:
            if not entry.issued and not entry.squashed:
                if entry.wrong_path:
                    has_unready_wp = True
                else:
                    return "operands_not_ready"
        if has_unready_wp or self._refill == "mispredict" or pipe.wp_active:
            return "ifq_empty_mispredict"
        if pipe.fetch_blocked_until > pipe.cycle or pipe.ifq:
            # I-miss stall, or fetched work still in flight to dispatch.
            return "fetch_starved"
        if pipe.fetch_cursor < len(pipe.trace):
            return "fetch_starved"
        if pipe.rqueue is not None and len(pipe.rqueue):
            return "r_drain"
        return "idle"

    # -- export ----------------------------------------------------------

    def finalize(self, stats) -> None:
        stats.accounting = self.state_dict()

    def state_dict(self) -> Dict[str, Any]:
        """JSON-shaped account for ``Stats.accounting``."""
        return {
            "schema": ACCOUNTING_SCHEMA_VERSION,
            "width": self.width,
            "cycles_total": self.cycles_total,
            "slots_total": self.width * self.cycles_total,
            "slots": {
                cause: count for cause, count in self.slots.items() if count
            },
            "cycles": {
                cause: count for cause, count in self.cycles.items() if count
            },
        }


# ----------------------------------------------------------------------
# account arithmetic (pure functions over state_dict() payloads)
# ----------------------------------------------------------------------


def accounting_identity_errors(account: Dict[str, Any]) -> List[str]:
    """Violations of the completeness identities (empty list == OK)."""
    if not account:
        return ["empty accounting payload"]
    errors: List[str] = []
    slots_total = account.get("slots_total", 0)
    slots_sum = sum(account.get("slots", {}).values())
    if slots_sum != slots_total:
        errors.append(
            f"slot account: charged {slots_sum} != {slots_total} "
            f"(width x cycles)"
        )
    cycles_total = account.get("cycles_total", 0)
    cycles_sum = sum(account.get("cycles", {}).values())
    if cycles_sum != cycles_total:
        errors.append(
            f"cycle account: charged {cycles_sum} != {cycles_total} cycles"
        )
    return errors


def r_share_of_delta(
    baseline: Dict[str, Any], reese: Dict[str, Any]
) -> Tuple[int, int]:
    """(R-attributable slot delta, total positive slot delta).

    The acceptance metric for the paper's contention story: of the
    extra slot charges REESE accrues over the baseline (including the
    extra cycles' worth of slots), how many land in R causes?  Only
    positive per-cause deltas count toward the numerator and the
    denominator — slots REESE *recovered* elsewhere (e.g. fewer
    idle slots) do not cancel slots it lost to contention.
    """
    base_slots = baseline.get("slots", {})
    reese_slots = reese.get("slots", {})
    r_delta = 0
    total_delta = 0
    for cause in SLOT_CAUSES:
        if cause == "issued_p":
            # Useful work is the same program on both sides; its slot
            # count is not a cost.
            continue
        delta = reese_slots.get(cause, 0) - base_slots.get(cause, 0)
        if delta > 0:
            total_delta += delta
            if cause in R_CAUSES:
                r_delta += delta
    return r_delta, total_delta
