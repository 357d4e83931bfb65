"""Drive the pipeline's R-stream Queue operations by hand.

The pipeline performs the queue's hot operations itself: the move phase
of ``Pipeline._commit_reese`` inserts, ``_issue_r`` issues,
``_writeback`` completes R executions and the commit phase of
``_commit_reese`` compares and retires.  :class:`QueueBench` runs those
methods on a REESE pipeline whose RUU it fills by hand with completed
instructions of a chosen R unit, so a test can steer the queue through
any sequence of operations and watch the events they raise.
"""

from repro.arch.trace import DynInst
from repro.isa import assemble
from repro.isa.instructions import OPINFO, FUClass
from repro.uarch import Pipeline, starting_config
from repro.uarch.pipeline import _Entry

#: One static instruction per R unit the bench can queue; every operand
#: is zero, so each result (and its re-execution) is 0.
PROGRAM = assemble("""
    .text
    main:
        add r1, r0, r0
        lw  r2, 0(r0)
        mul r3, r0, r0
        halt
""")
STATIC_INDEX = {FUClass.INT_ALU: 0, FUClass.MEM_PORT: 1, FUClass.INT_MULT: 2}
R_CLASSES = list(STATIC_INDEX)


def waiting_entries(queue):
    """The queue's entries awaiting R issue, in insertion order: the
    one scan the issue stage's FIFO merge must match."""
    return sorted((entry for fifo in queue.pending.values()
                   for entry in fifo), key=lambda entry: entry.order)


class Recorder:
    """Observer keeping ``(event, trace seq)`` for every R-stream event."""

    def __init__(self):
        self.events = []

    def notify(self, event, cycle, entry=None, **info):
        if event == "rqueue":
            self.events.append((event, entry.trace_seq))
        elif "rentry" in info:
            self.events.append((event, info["rentry"].trace_seq))

    def take(self, event):
        """Trace seqs of ``event`` since the last take, in order."""
        seqs = [seq for name, seq in self.events if name == event]
        self.events = [item for item in self.events if item[0] != event]
        return seqs


class QueueBench:
    """A REESE pipeline with a hand-filled RUU."""

    def __init__(self, capacity=8, early_remove=False):
        config = starting_config().with_reese(
            rqueue_size=capacity, early_remove=early_remove,
            high_water_margin=capacity - 1,
        )
        self.recorder = Recorder()
        self.pipe = Pipeline(PROGRAM, [], config, observer=self.recorder)
        self.queue = self.pipe.rqueue
        self.next_seq = 0

    def complete(self, fu=FUClass.INT_ALU, skip_r=False, done=True):
        """Dispatch the next instruction (an R unit ``fu`` op) into the
        RUU, P-completed unless ``done`` is false; returns its entry."""
        index = STATIC_INDEX[fu]
        inst = PROGRAM.code[index]
        info = OPINFO[inst.op]
        dyn = DynInst(index, 0x1000 + 8 * index, inst.op, info.fu,
                      inst.dst(), inst.srcs(), info.is_load)
        dyn.seq = self.next_seq
        dyn.result = dyn.a = dyn.b = 0
        entry = _Entry(self.next_seq, dyn)
        self.next_seq += 1
        entry.issued = entry.completed = done
        entry.skip_r = skip_r
        self.pipe.ruu.append(entry)
        if entry.is_mem:
            self.pipe.lsq.append(entry)
        return entry

    def commit(self):
        """One commit stage: retire, then move into the queue."""
        self.pipe._commit_reese()

    def issue(self, budget=8):
        """One R-issue stage with ``budget`` slots; returns the seqs issued."""
        self.pipe._issue_r(budget)
        return self.recorder.take("r_issue")

    def tick(self):
        """Advance one cycle and complete the R executions due then."""
        self.pipe.cycle += 1
        self.pipe._writeback()
        return self.recorder.take("r_complete")

    def flush(self):
        """Full recovery flush, refetching from the commit point."""
        self.pipe._flush_all(refetch_cursor=self.pipe.commit_seq)
        self.next_seq = self.pipe.commit_seq

    def waiting(self):
        return [entry.trace_seq for entry in waiting_entries(self.queue)]
