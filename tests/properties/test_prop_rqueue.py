"""Property-based tests for R-stream Queue invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.arch.trace import DynInst
from repro.isa.instructions import FUClass, Op
from repro.reese import R_DONE, R_ISSUED, R_WAITING, REntry, RStreamQueue


R_CLASSES = [FUClass.INT_ALU, FUClass.MEM_PORT, FUClass.INT_MULT]


def make_entry(seq, fu=FUClass.INT_ALU):
    dyn = DynInst()
    dyn.seq = seq
    dyn.op = Op.ADD
    return REntry(seq, dyn, p_value=seq, fu=fu, inserted_cycle=0)


class RQueueMachine(RuleBasedStateMachine):
    """Stateful model-check of the queue against a reference model."""

    def __init__(self):
        super().__init__()
        self.queue = RStreamQueue(capacity=8)
        self.model = {}           # seq -> state
        self.insertion = []       # insertion order of waiting entries
        self.next_seq = 0
        self.entries = {}

    @rule(fu=st.sampled_from(R_CLASSES))
    def push(self, fu):
        if self.queue.full:
            return
        entry = make_entry(self.next_seq, fu)
        self.queue.push(entry)
        self.entries[self.next_seq] = entry
        self.model[self.next_seq] = R_WAITING
        self.insertion.append(self.next_seq)
        self.next_seq += 1

    @rule()
    def issue_head(self):
        entry = self.queue.peek_unissued()
        if entry is None:
            assert not any(s == R_WAITING for s in self.model.values())
            return
        # FIFO: head of pending must be the earliest-inserted waiting seq.
        waiting = [s for s in self.insertion if self.model.get(s) == R_WAITING]
        assert entry.seq == waiting[0]
        self.queue.mark_issued(entry)
        self.model[entry.seq] = R_ISSUED

    @rule(data=st.data())
    def issue_any(self, data):
        # The issue stage may skip a busy class and issue a younger entry.
        waiting = [s for s in self.insertion if self.model.get(s) == R_WAITING]
        if not waiting:
            return
        seq = data.draw(st.sampled_from(waiting))
        self.queue.mark_issued(self.entries[seq])
        self.model[seq] = R_ISSUED

    @rule(data=st.data())
    def complete_some_issued(self, data):
        issued = [s for s, state in self.model.items() if state == R_ISSUED]
        if not issued:
            return
        seq = data.draw(st.sampled_from(issued))
        self.entries[seq].state = R_DONE
        self.model[seq] = R_DONE

    @rule()
    def commit_oldest_done(self):
        if not self.model:
            return
        oldest = min(self.model)
        entry = self.queue.committable(oldest)
        if self.model[oldest] == R_DONE:
            assert entry is not None
            self.queue.pop(oldest)
            del self.model[oldest]
            self.insertion = [s for s in self.insertion if s != oldest]
        else:
            assert entry is None

    @rule()
    def flush(self):
        dropped = self.queue.clear()
        assert dropped == len(self.model)
        self.model.clear()
        self.insertion.clear()

    @invariant()
    def occupancy_matches_model(self):
        assert len(self.queue) == len(self.model)
        assert self.queue.full == (len(self.model) >= 8)

    @invariant()
    def entries_in_program_order(self):
        seqs = [entry.seq for entry in self.queue.entries()]
        assert seqs == sorted(self.model)

    @invariant()
    def waiting_in_insertion_order(self):
        waiting = [entry.seq for entry in self.queue.waiting_entries()]
        model_waiting = [
            seq for seq in self.insertion if self.model.get(seq) == R_WAITING
        ]
        assert waiting == model_waiting

    @invariant()
    def fifos_hold_their_class_in_order(self):
        for fu, fifo in self.queue.pending.items():
            orders = [entry.order for entry in fifo]
            assert orders == sorted(orders)
            assert all(entry.fu == fu for entry in fifo)
        assert self.queue.validate() == []


TestRQueueStateMachine = RQueueMachine.TestCase
TestRQueueStateMachine.settings = settings(
    max_examples=60, stateful_step_count=60, deadline=None
)


class TestSimpleProperties:
    @given(st.lists(st.tuples(st.integers(0, 1000),
                              st.sampled_from(R_CLASSES)),
                    unique_by=lambda item: item[0], min_size=1, max_size=32))
    def test_insertion_order_preserved_for_issue(self, items):
        queue = RStreamQueue(capacity=32)
        seqs = [seq for seq, _ in items]
        for seq, fu in items:
            queue.push(make_entry(seq, fu))
        issued = []
        while True:
            entry = queue.peek_unissued()
            if entry is None:
                break
            queue.mark_issued(entry)
            issued.append(entry.seq)
        assert issued == seqs
