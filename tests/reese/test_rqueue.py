"""Unit tests for the R-stream Queue."""

from collections import deque

import pytest

from repro.arch.trace import DynInst
from repro.isa.instructions import FUClass, Op
from repro.reese import R_DONE, R_ISSUED, R_WAITING, REntry, RStreamQueue


def make_entry(seq, skip_r=False, fu=FUClass.INT_ALU):
    dyn = DynInst()
    dyn.seq = seq
    dyn.op = Op.ADD
    return REntry(seq=seq, dyn=dyn, p_value=seq * 10, fu=fu,
                  inserted_cycle=0, skip_r=skip_r)


class TestCapacity:
    def test_paper_default_is_32(self):
        assert RStreamQueue().capacity == 32

    def test_full_and_free_slots(self):
        queue = RStreamQueue(capacity=2)
        assert queue.free_slots == 2
        queue.push(make_entry(0))
        assert queue.free_slots == 1 and not queue.full
        queue.push(make_entry(1))
        assert queue.full

    def test_push_over_capacity_raises(self):
        queue = RStreamQueue(capacity=1)
        queue.push(make_entry(0))
        with pytest.raises(OverflowError):
            queue.push(make_entry(1))

    def test_duplicate_seq_rejected(self):
        queue = RStreamQueue()
        queue.push(make_entry(5))
        with pytest.raises(ValueError):
            queue.push(make_entry(5))

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            RStreamQueue(capacity=0)


class TestIssueOrder:
    def test_fifo_issue_order(self):
        queue = RStreamQueue()
        for seq in (3, 7, 9):
            queue.push(make_entry(seq))
        assert queue.peek_unissued().seq == 3
        queue.mark_issued(queue.peek_unissued())
        assert queue.peek_unissued().seq == 7

    def test_waiting_entries_snapshot(self):
        queue = RStreamQueue()
        entries = [make_entry(seq) for seq in range(4)]
        for entry in entries:
            queue.push(entry)
        queue.mark_issued(entries[1])  # out-of-order issue (skip-scan)
        waiting = queue.waiting_entries()
        assert [e.seq for e in waiting] == [0, 2, 3]

    def test_one_fifo_per_class_in_insertion_order(self):
        queue = RStreamQueue()
        fus = [FUClass.MEM_PORT, FUClass.INT_ALU, FUClass.MEM_PORT,
               FUClass.INT_MULT, FUClass.INT_ALU]
        for seq, fu in zip((9, 4, 7, 5, 8), fus):
            queue.push(make_entry(seq, fu=fu))
        assert {fu: [e.seq for e in fifo]
                for fu, fifo in queue.pending.items()} == {
            FUClass.MEM_PORT: [9, 7],
            FUClass.INT_ALU: [4, 8],
            FUClass.INT_MULT: [5],
        }
        # The merged snapshot and the head follow insertion numbers.
        assert [e.order for e in queue.waiting_entries()] == [0, 1, 2, 3, 4]
        assert [e.seq for e in queue.waiting_entries()] == [9, 4, 7, 5, 8]
        assert queue.peek_unissued().seq == 9

    def test_mark_issued_leaves_its_fifo(self):
        queue = RStreamQueue()
        entries = [make_entry(seq, fu=fu) for seq, fu in
                   enumerate([FUClass.INT_ALU, FUClass.MEM_PORT,
                              FUClass.INT_ALU])]
        for entry in entries:
            queue.push(entry)
        queue.mark_issued(entries[2])  # not its FIFO's head
        assert [e.seq for e in queue.pending[FUClass.INT_ALU]] == [0]
        queue.mark_issued(entries[0])
        assert queue.peek_unissued() is entries[1]
        assert queue.validate() == []

    def test_validate_flags_a_misfiled_entry(self):
        queue = RStreamQueue()
        entry = make_entry(0)
        queue.push(entry)
        queue.pending.setdefault(FUClass.MEM_PORT, deque()).append(entry)
        assert queue.validate()

    def test_mark_issued_rejects_a_dropped_entry(self):
        queue = RStreamQueue()
        entry = make_entry(0)
        queue.push(entry)
        queue.clear()
        with pytest.raises(ValueError):
            queue.mark_issued(entry)

    def test_skip_r_entries_never_pending(self):
        queue = RStreamQueue()
        queue.push(make_entry(0, skip_r=True))
        assert queue.peek_unissued() is None
        assert queue.committable(0) is not None  # immediately DONE

    def test_mark_issued_requires_waiting(self):
        queue = RStreamQueue()
        entry = make_entry(0)
        queue.push(entry)
        queue.mark_issued(entry)
        with pytest.raises(ValueError):
            queue.mark_issued(entry)

    def test_states_progress(self):
        queue = RStreamQueue()
        entry = make_entry(0)
        queue.push(entry)
        assert entry.state == R_WAITING
        queue.mark_issued(entry)
        assert entry.state == R_ISSUED
        entry.state = R_DONE
        assert queue.committable(0) is entry


class TestCommitOrder:
    def test_committable_only_when_done(self):
        queue = RStreamQueue()
        entry = make_entry(0)
        queue.push(entry)
        assert queue.committable(0) is None
        entry.state = R_DONE
        assert queue.committable(0) is entry

    def test_committable_by_program_order_not_insertion(self):
        # With early removal, seq 5 may be inserted before seq 4.
        queue = RStreamQueue()
        late = make_entry(5)
        early = make_entry(4)
        queue.push(late)
        queue.push(early)
        late.state = R_DONE
        early.state = R_DONE
        assert queue.committable(4) is early
        queue.pop(4)
        assert queue.committable(5) is late

    def test_pop_removes(self):
        queue = RStreamQueue()
        queue.push(make_entry(0, skip_r=True))
        queue.pop(0)
        assert len(queue) == 0
        assert not queue.contains(0)


class TestFlush:
    def test_clear_drops_everything(self):
        queue = RStreamQueue()
        for seq in range(5):
            queue.push(make_entry(seq))
        dropped = queue.clear()
        assert dropped == 5
        assert len(queue) == 0
        assert queue.peek_unissued() is None

    def test_clear_empties_every_fifo(self):
        queue = RStreamQueue()
        queue.push(make_entry(0))
        queue.push(make_entry(1, fu=FUClass.MEM_PORT))
        queue.clear()
        assert all(not fifo for fifo in queue.pending.values())
        fresh = make_entry(0)
        queue.push(fresh)
        assert queue.peek_unissued() is fresh
        assert queue.waiting_entries() == [fresh]
        assert queue.validate() == []

    def test_entries_iterates_in_program_order(self):
        queue = RStreamQueue()
        for seq in (9, 4, 7):
            queue.push(make_entry(seq))
        assert [e.seq for e in queue.entries()] == [4, 7, 9]

    def test_total_inserted_counter(self):
        queue = RStreamQueue()
        queue.push(make_entry(0))
        queue.clear()
        queue.push(make_entry(1))
        assert queue.total_inserted == 2
