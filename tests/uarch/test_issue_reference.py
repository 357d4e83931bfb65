"""Reference checks for the issue-stage structures.

``FUPool.acquire`` fails in O(1) once a pool is exhausted for the
cycle, and R-stream issue merges the R-stream Queue's per-class FIFOs
instead of scanning every waiting entry.  Both must decide exactly what
the plain versions decide.  The references below are those plain
versions: a unit-by-unit acquire and one insertion-order scan over all
waiting entries, which skips an entry whose unit is busy.
"""

from collections import defaultdict
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.trace import DynInst
from repro.isa.instructions import FUClass, Op
from repro.reese import R_ISSUED, R_WAITING, RStreamQueue
from repro.uarch import FUPool, Pipeline, starting_config
from repro.uarch.config import LatencyConfig
from repro.uarch.pipeline import _Entry
from repro.uarch.stats import Stats
from repro.workloads.suite import trace_for

from tests.reese.rqueue_bench import waiting_entries

FU_CLASSES = [cls for cls in FUClass if cls is not FUClass.NONE]


class ReferencePool:
    """Functional units that scan every unit on every acquire."""

    def __init__(self, config):
        lat = config.latencies
        self.units = {
            "ialu": [0] * config.int_alu,
            "imultdiv": [0] * config.int_mult,
            "fpadd": [0] * config.fp_alu,
            "fpmultdiv": [0] * config.fp_mult,
            "mem": [0] * config.mem_ports,
        }
        self.classes = {}
        for fu_class, (key, op_attr, issue_attr) in FUPool._OP_MAP.items():
            if fu_class is FUClass.MEM_PORT:
                self.classes[fu_class] = (key, 0, 1)
            else:
                self.classes[fu_class] = (
                    key, getattr(lat, op_attr), getattr(lat, issue_attr),
                )

    def acquire(self, fu_class, cycle):
        key, oplat, issuelat = self.classes[fu_class]
        pool = self.units[key]
        for index, next_free in enumerate(pool):
            if next_free <= cycle:
                pool[index] = cycle + issuelat
                return oplat
        return None


def reference_issue_r(waiting, pool, cycle, budget, l1d_hit):
    """One insertion-order scan over ``waiting`` (removes what issues).

    Returns ``(issued, blocks, budget)``: the ``(seq, finish)`` of each
    issue in order, and how many blocked entries the scan visited.
    """
    issued, blocks = [], 0
    for rentry in list(waiting):
        if not budget:
            break
        grant = pool.acquire(rentry.r_fu, cycle)
        if grant is None:
            blocks += 1
            continue
        if rentry.r_fu is FUClass.MEM_PORT:
            latency = l1d_hit
        else:
            latency = max(1, grant)
        waiting.remove(rentry)
        issued.append((rentry.trace_seq, cycle + latency))
        budget -= 1
    return issued, blocks, budget


class CountingAccountant:
    def __init__(self):
        self.blocks = 0

    def note_fu_block(self, fu_class, cycle, r_work):
        assert r_work
        self.blocks += 1


def _config(units, lat):
    int_alu, int_mult, fp_alu, fp_mult, mem_ports = units
    return starting_config().replace(
        int_alu=int_alu, int_mult=int_mult, fp_alu=fp_alu,
        fp_mult=fp_mult, mem_ports=mem_ports,
        latencies=LatencyConfig(
            int_mult=lat[0], int_mult_issue=lat[1], int_div=lat[2],
            int_div_issue=lat[3], fp_mult=lat[4], fp_div_issue=lat[5],
        ),
    )


def _rentry(seq, fu):
    dyn = DynInst()
    dyn.seq = seq
    dyn.op = Op.ADD
    entry = _Entry(seq, dyn)
    entry.r_fu = fu
    return entry


def _insert(queue, entry):
    """Queue ``entry`` for R issue, as the pipeline's move does."""
    entry.order = queue.total_inserted
    queue.total_inserted += 1
    entry.r_state = R_WAITING
    queue.by_seq[entry.trace_seq] = entry
    queue.pending[entry.r_fu].append(entry)


def _stub_pipe(queue, pool, acct, order):
    """The state ``Pipeline._issue_r`` reads, with an L1 hit of 2."""
    r_latency = {
        fu: 2 if fu is FUClass.MEM_PORT else max(1, latency)
        for fu, latency in pool.latency.items()
    }
    return SimpleNamespace(
        cycle=0, rqueue=queue, fupool=pool, stats=Stats(),
        observer=SimpleNamespace(
            notify=lambda event, cycle, **info: order.append(
                info["trace_seq"]
            )
        ),
        _wheel=defaultdict(list), _r_latency=r_latency, accountant=acct,
    )


units_st = st.tuples(*[st.integers(1, 3)] * 5)
latencies_st = st.tuples(*[st.integers(1, 6)] * 6)
# Per cycle: the entries that join the queue, the P-stream acquires made
# before R issue, and the R budget.
cycle_st = st.tuples(
    st.lists(st.sampled_from(FU_CLASSES), max_size=10),
    st.lists(st.sampled_from(FU_CLASSES), max_size=6),
    st.integers(0, 8),
)


class TestRIssueMatchesTheScan:
    @settings(max_examples=150, deadline=None)
    @given(units_st, latencies_st, st.lists(cycle_st, min_size=1, max_size=8),
           st.booleans())
    def test_same_issues_and_blocks(self, units, lat, cycles, with_acct):
        config = _config(units, lat)
        pool = FUPool(config)
        reference = ReferencePool(config)
        queue = RStreamQueue(capacity=128)
        waiting = []  # the reference's insertion-ordered waiting entries
        acct = CountingAccountant() if with_acct else None
        order = []
        pipe = _stub_pipe(queue, pool, acct, order)
        seq = 0
        for cycle, (arrivals, p_work, budget) in enumerate(cycles):
            pipe.cycle = cycle
            for fu in arrivals:
                _insert(queue, _rentry(seq, fu))
                waiting.append(_rentry(seq, fu))
                seq += 1
            for fu in p_work:
                assert pool.acquire(fu, cycle) == reference.acquire(fu, cycle)
            blocks_before = acct.blocks if acct else 0
            left = Pipeline._issue_r(pipe, budget)
            issued, blocks, ref_left = reference_issue_r(
                waiting, reference, cycle, budget, 2
            )
            finish = {
                rentry.trace_seq: when
                for when, bucket in pipe._wheel.items() for rentry in bucket
            }
            assert [(seq, finish[seq]) for seq in order] == issued
            order.clear()
            pipe._wheel.clear()
            assert left == ref_left
            if acct is not None:
                assert acct.blocks - blocks_before == blocks
            assert [e.trace_seq for e in waiting_entries(queue)] == [
                e.trace_seq for e in waiting
            ]
            assert queue.validate() == []
            for pool_key, units_left in reference.units.items():
                assert pool._pools[pool_key] == units_left

    def test_issue_order_is_insertion_order(self):
        pool = FUPool(starting_config())
        queue = RStreamQueue()
        fus = [FUClass.MEM_PORT, FUClass.INT_ALU, FUClass.INT_MULT,
               FUClass.INT_ALU, FUClass.MEM_PORT]
        for seq, fu in enumerate(fus):
            _insert(queue, _rentry(seq, fu))
        order = []
        pipe = _stub_pipe(queue, pool, None, order)
        assert Pipeline._issue_r(pipe, 8) == 3
        assert order == [0, 1, 2, 3, 4]
        assert all(e.r_state == R_ISSUED for e in queue.by_seq.values())


class TestFUPoolExhaustion:
    @settings(max_examples=150, deadline=None)
    @given(
        units_st, latencies_st,
        st.lists(st.tuples(st.sampled_from(FU_CLASSES), st.integers(0, 12),
                           st.booleans()), max_size=60),
    )
    def test_grants_match_the_unit_scan(self, units, lat, calls):
        config = _config(units, lat)
        pool = FUPool(config)
        reference = ReferencePool(config)
        for fu, cycle, r_stream in calls:
            grant = pool.acquire(fu, cycle, r_stream)
            assert grant == reference.acquire(fu, cycle)
            if grant is None:
                key = FUPool._OP_MAP[fu][0]
                for other, (other_key, _, _) in FUPool._OP_MAP.items():
                    if other_key == key:
                        assert pool.exhausted[other][0] == cycle
                        assert pool.acquire(other, cycle) is None
                        assert reference.acquire(other, cycle) is None

    def test_shared_pool_classes_share_one_cell(self):
        pool = FUPool(starting_config())  # one integer mult/div unit
        assert pool.acquire(FUClass.INT_DIV, 5) == 20
        assert pool.acquire(FUClass.INT_MULT, 6) is None
        assert pool.exhausted[FUClass.INT_DIV] == [6]
        assert pool.exhausted[FUClass.INT_MULT] is pool.exhausted[
            FUClass.INT_DIV
        ]
        assert pool.exhausted[FUClass.FP_MULT] is pool.exhausted[
            FUClass.FP_DIV
        ]
        assert pool.exhausted[FUClass.INT_ALU] == [-1]


class TestAcquireCount:
    def test_reese_gcc_acquires_per_committed_instruction(self):
        program, trace = trace_for("gcc", 8000)
        pipe = Pipeline(program, trace, starting_config().with_reese(),
                        warm_caches=True, warm_predictor=True)
        calls = [0]

        def counting(method):
            def count(*args):
                calls[0] += 1
                return method(*args)
            return count

        fupool = pipe.fupool
        fupool.acquire = counting(fupool.acquire)
        fupool.acquire_r = counting(fupool.acquire_r)
        fupool.available = counting(fupool.available)
        stats = pipe.run()
        assert stats.committed == len(trace)
        assert calls[0] / stats.committed <= 3.0

