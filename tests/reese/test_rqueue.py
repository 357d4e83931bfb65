"""Unit tests for the R-stream Queue and the pipeline's queue operations.

The pipeline inserts, issues, completes and retires queue entries
itself (see ``tests/reese/rqueue_bench.py``); these tests steer those
operations through hand-built RUU states.
"""

import pytest

from repro.isa.instructions import FUClass
from repro.reese import R_DONE, R_ISSUED, R_WAITING, RStreamQueue
from repro.uarch.observers import InvariantChecker, InvariantViolation

from tests.reese.rqueue_bench import QueueBench, waiting_entries

ALU, MEM, MULT = FUClass.INT_ALU, FUClass.MEM_PORT, FUClass.INT_MULT


class TestCapacity:
    def test_paper_default_is_32(self):
        assert RStreamQueue().capacity == 32

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            RStreamQueue(capacity=0)

    def test_full_and_free_slots(self):
        bench = QueueBench(capacity=2)
        for _ in range(3):
            bench.complete()
        bench.commit()  # the third move finds the queue full
        assert len(bench.queue) == bench.queue.capacity == 2
        assert [e.trace_seq for e in bench.pipe.ruu] == [2]
        assert bench.pipe.stats.rqueue_full_events == 1
        bench.issue()
        bench.tick()
        bench.commit()  # two retire, freeing the slots the third takes
        assert bench.pipe.stats.committed == 2
        assert list(bench.queue.by_seq) == [2]

    def test_push_over_capacity_raises(self):
        # The move never overfills the queue; an overfilled one fails the
        # invariant checker's structural sweep.
        bench = QueueBench(capacity=2)
        for _ in range(3):
            bench.complete()
        bench.commit()
        extra = bench.pipe.ruu.pop()
        bench.queue.by_seq[extra.trace_seq] = extra
        extra.r_state = R_DONE
        with pytest.raises(InvariantViolation, match="capacity"):
            InvariantChecker().on_cycle(bench.pipe)

    def test_duplicate_seq_rejected(self):
        bench = QueueBench()
        bench.complete()
        bench.commit()
        stale = bench.queue.by_seq[0]
        bench.flush()
        fresh = bench.complete()
        bench.commit()
        assert bench.queue.by_seq[0] is fresh
        # A second insertion under a live seq leaves the first entry
        # pending but no longer live: validate rejects that state.
        bench.queue.pending[ALU].appendleft(stale)
        stale.r_state = R_WAITING
        assert any("not a live" in p for p in bench.queue.validate())


class TestIssueOrder:
    def test_fifo_issue_order(self):
        bench = QueueBench()
        for _ in range(3):
            bench.complete()
        bench.commit()
        assert bench.issue(budget=1) == [0]
        assert bench.issue(budget=1) == [1]
        assert bench.waiting() == [2]

    def test_waiting_entries_snapshot(self):
        bench = QueueBench()
        for fu in (ALU, MULT, ALU, MULT):
            bench.complete(fu)
        bench.commit()
        # The only multiplier is busy this cycle: the younger ALU work
        # issues past the waiting multiplies (R entries are independent).
        assert bench.pipe.fupool.acquire(MULT, bench.pipe.cycle) is not None
        assert bench.issue() == [0, 2]
        assert bench.waiting() == [1, 3]
        assert bench.queue.validate() == []

    def test_mark_issued_leaves_its_fifo(self):
        bench = QueueBench()
        for fu in (MULT, ALU, MEM, ALU):
            bench.complete(fu)
        bench.commit()
        bench.pipe.fupool.acquire(MULT, bench.pipe.cycle)
        assert bench.issue() == [1, 2, 3]
        assert not bench.queue.pending[ALU] and not bench.queue.pending[MEM]
        assert [e.trace_seq for e in bench.queue.pending[MULT]] == [0]
        assert [bench.queue.by_seq[s].r_state for s in range(4)] == [
            R_WAITING, R_ISSUED, R_ISSUED, R_ISSUED
        ]
        assert bench.queue.validate() == []

    def test_one_fifo_per_class_in_insertion_order(self):
        bench = QueueBench(early_remove=True)
        late = bench.complete(MEM, done=False)
        for fu in (ALU, MEM, MULT, ALU):
            bench.complete(fu)
        bench.commit()  # seqs 1-4 move ahead of the unfinished seq 0
        late.completed = True
        bench.commit()
        assert {fu: [e.trace_seq for e in fifo]
                for fu, fifo in bench.queue.pending.items() if fifo} == {
            ALU: [1, 4], MEM: [2, 0], MULT: [3],
        }
        # The merged snapshot follows insertion numbers, not seqs.
        assert [e.order for e in waiting_entries(bench.queue)] == [
            0, 1, 2, 3, 4
        ]
        assert bench.waiting() == [1, 2, 3, 4, 0]
        assert bench.issue() == [1, 2, 3, 4, 0]

    def test_validate_flags_a_misfiled_entry(self):
        bench = QueueBench()
        bench.complete()
        bench.commit()
        bench.queue.pending[MEM].append(bench.queue.by_seq[0])
        assert bench.queue.validate()

    def test_skip_r_entries_never_pending(self):
        bench = QueueBench()
        entry = bench.complete(skip_r=True)
        bench.commit()
        assert bench.waiting() == []
        assert entry.r_state == R_DONE
        bench.commit()
        assert bench.pipe.stats.committed == 1
        assert bench.pipe.stats.comparisons == 0

    def test_mark_issued_rejects_a_dropped_entry(self):
        bench = QueueBench()
        dropped = bench.complete()
        bench.commit()
        bench.flush()
        assert bench.issue() == []
        assert dropped.r_state == R_WAITING  # never issued

    def test_mark_issued_requires_waiting(self):
        bench = QueueBench()
        entry = bench.complete()
        bench.commit()
        assert bench.issue() == [0]
        bench.pipe.cycle += 1  # free every unit: nothing waits any more
        assert bench.issue() == []
        assert entry.r_state == R_ISSUED

    def test_states_progress(self):
        bench = QueueBench()
        entry = bench.complete(MULT)
        bench.commit()
        assert entry.r_state == R_WAITING
        assert bench.issue() == [0]
        assert entry.r_state == R_ISSUED
        latency = bench.pipe.config.latencies.int_mult
        completed = [bench.tick() for _ in range(latency)]
        assert completed == [[]] * (latency - 1) + [[0]]
        assert entry.r_state == R_DONE and entry.r_value == 0


class TestCommitOrder:
    def test_committable_only_when_done(self):
        bench = QueueBench()
        bench.complete()
        bench.commit()
        bench.commit()
        assert bench.pipe.stats.committed == 0
        bench.issue()
        bench.tick()
        bench.commit()
        assert bench.pipe.stats.committed == 1
        assert bench.pipe.stats.comparisons == 1

    def test_committable_by_program_order_not_insertion(self):
        # With early removal, seq 1 enters the queue before seq 0.
        bench = QueueBench(early_remove=True)
        early = bench.complete(done=False)
        late = bench.complete()
        bench.commit()
        assert late.order == 0
        bench.issue()
        bench.tick()
        bench.commit()
        assert bench.pipe.stats.committed == 0  # seq 0 is not DONE
        early.completed = True
        bench.commit()
        bench.issue()
        bench.tick()
        bench.commit()
        assert bench.pipe.stats.committed == 2
        assert bench.pipe.commit_seq == 2

    def test_pop_removes(self):
        bench = QueueBench()
        bench.complete(skip_r=True)
        bench.commit()
        bench.commit()
        assert len(bench.queue) == 0
        assert 0 not in bench.queue.by_seq


class TestFlush:
    def test_clear_drops_everything(self):
        bench = QueueBench()
        for _ in range(5):
            bench.complete()
        bench.commit()
        assert bench.queue.clear() == 5
        assert len(bench.queue) == 0
        assert bench.waiting() == []

    def test_clear_empties_every_fifo(self):
        bench = QueueBench()
        bench.complete()
        bench.complete(MEM)
        bench.commit()
        bench.flush()
        assert all(not fifo for fifo in bench.queue.pending.values())
        fresh = bench.complete()
        bench.commit()
        assert waiting_entries(bench.queue) == [fresh]
        assert bench.queue.validate() == []

    def test_entries_iterates_in_program_order(self):
        # Early removal inserts seqs 1-3 before seq 0; looked up by seq,
        # the entries still come out, and retire, in program order.
        bench = QueueBench(early_remove=True)
        late = bench.complete(skip_r=True, done=False)
        for _ in range(3):
            bench.complete(skip_r=True)
        bench.commit()
        late.completed = True
        bench.commit()
        queue = bench.queue
        assert [queue.by_seq[s].order for s in sorted(queue.by_seq)] == [
            3, 0, 1, 2
        ]
        bench.commit()
        assert bench.recorder.take("commit") == [0, 1, 2, 3]

    def test_total_inserted_counter(self):
        bench = QueueBench()
        bench.complete()
        bench.commit()
        bench.flush()
        fresh = bench.complete()
        bench.commit()
        assert bench.queue.total_inserted == 2
        assert fresh.order == 1
