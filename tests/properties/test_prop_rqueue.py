"""Property-based tests for R-stream Queue invariants.

The queue's operations are the pipeline's own (insertion, R issue,
R completion, final commit, flush), driven through
``tests/reese/rqueue_bench.py`` and checked against a reference model.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.reese import R_DONE, R_ISSUED, R_WAITING

from tests.reese.rqueue_bench import R_CLASSES, QueueBench

CAPACITY = 8


class RQueueMachine(RuleBasedStateMachine):
    """Stateful model-check of the queue against a reference model."""

    def __init__(self):
        super().__init__()
        self.bench = QueueBench(capacity=CAPACITY)
        self.pipe = self.bench.pipe
        self.queue = self.bench.queue
        self.model = {}           # seq -> state
        self.insertion = []       # insertion order of queued seqs
        self.unmoved = []         # seqs completed in the RUU, unmoved
        self.committed = 0

    @rule(fu=st.sampled_from(R_CLASSES), skip_r=st.booleans())
    def complete(self, fu, skip_r):
        if len(self.pipe.ruu) >= self.pipe.config.ruu_size:
            return
        entry = self.bench.complete(fu, skip_r=skip_r)
        self.unmoved.append((entry.trace_seq, skip_r))

    @rule()
    def commit(self):
        budget = self.pipe.config.commit_width
        expected = []
        while budget and self.model.get(self.committed) == R_DONE:
            del self.model[self.committed]
            self.insertion.remove(self.committed)
            expected.append(self.committed)
            self.committed += 1
            budget -= 1
        moved = []
        moves = self.pipe.config.commit_width
        while moves and self.unmoved and len(self.model) < CAPACITY:
            seq, skip_r = self.unmoved.pop(0)
            self.model[seq] = R_DONE if skip_r else R_WAITING
            self.insertion.append(seq)
            moved.append(seq)
            moves -= 1
        self.bench.commit()
        assert self.bench.recorder.take("commit") == expected
        assert self.bench.recorder.take("rqueue") == moved
        assert self.pipe.commit_seq == self.committed

    @rule(budget=st.integers(1, 8))
    def issue(self, budget):
        issued = self.bench.issue(budget)
        assert len(issued) <= budget
        waiting = [s for s in self.insertion if self.model[s] == R_WAITING]
        # The issued entries are waiting ones, in insertion order.
        assert [s for s in waiting if s in issued] == issued
        for seq in issued:
            self.model[seq] = R_ISSUED

    @rule()
    def tick(self):
        for seq in self.bench.tick():
            assert self.model[seq] == R_ISSUED
            self.model[seq] = R_DONE

    @rule()
    def flush(self):
        self.bench.flush()
        assert self.bench.recorder.take("commit") == []
        self.model.clear()
        self.insertion.clear()
        self.unmoved.clear()

    @invariant()
    def occupancy_matches_model(self):
        assert len(self.queue) == len(self.model) <= CAPACITY

    @invariant()
    def entries_match_the_model(self):
        assert sorted(self.queue.by_seq) == sorted(self.model)
        for seq, entry in self.queue.by_seq.items():
            assert entry.r_state == self.model[seq]

    @invariant()
    def waiting_in_insertion_order(self):
        model_waiting = [
            seq for seq in self.insertion if self.model[seq] == R_WAITING
        ]
        assert self.bench.waiting() == model_waiting

    @invariant()
    def fifos_hold_their_class_in_order(self):
        for fu, fifo in self.queue.pending.items():
            orders = [entry.order for entry in fifo]
            assert orders == sorted(orders)
            assert all(entry.r_fu == fu for entry in fifo)
        assert self.queue.validate() == []

    @invariant()
    def commits_are_compared(self):
        stats = self.pipe.stats
        assert stats.errors_detected == 0
        assert stats.committed == self.committed


TestRQueueStateMachine = RQueueMachine.TestCase
TestRQueueStateMachine.settings = settings(
    max_examples=60, stateful_step_count=60, deadline=None
)


class TestSimpleProperties:
    @given(st.lists(st.sampled_from(R_CLASSES), min_size=1, max_size=32))
    def test_insertion_order_preserved_for_issue(self, classes):
        bench = QueueBench(capacity=32)
        issued = []
        for index, fu in enumerate(classes):
            bench.complete(fu)
            if index % 8 == 7:
                bench.commit()  # at most commit-width moves a cycle
        bench.commit()
        while len(issued) < len(classes):
            issued += bench.issue(budget=1)
            bench.tick()
        assert issued == list(range(len(classes)))
