"""Unit tests for the functional-unit pools."""

import pytest

from repro.isa.instructions import FUClass
from repro.uarch import FUPool, starting_config


@pytest.fixture
def pool():
    return FUPool(starting_config())


class TestAcquire:
    def test_alu_count_per_cycle(self, pool):
        grants = [pool.acquire(FUClass.INT_ALU, 0) for _ in range(5)]
        assert grants[:4] == [1, 1, 1, 1]
        assert grants[4] is None  # only 4 ALUs (Table 1)

    def test_alus_free_next_cycle(self, pool):
        for _ in range(4):
            pool.acquire(FUClass.INT_ALU, 0)
        assert pool.acquire(FUClass.INT_ALU, 1) == 1

    def test_mult_is_pipelined(self, pool):
        assert pool.acquire(FUClass.INT_MULT, 0) == 3
        assert pool.acquire(FUClass.INT_MULT, 1) == 3  # issue latency 1

    def test_div_blocks_the_shared_unit(self, pool):
        assert pool.acquire(FUClass.INT_DIV, 0) == 20
        # The single mult/div unit is busy for the div's 19-cycle issue
        # latency: neither a mul nor another div can start.
        assert pool.acquire(FUClass.INT_MULT, 5) is None
        assert pool.acquire(FUClass.INT_DIV, 18) is None
        assert pool.acquire(FUClass.INT_MULT, 19) == 3

    def test_mem_ports_return_zero_latency(self, pool):
        assert pool.acquire(FUClass.MEM_PORT, 0) == 0
        assert pool.acquire(FUClass.MEM_PORT, 0) == 0
        assert pool.acquire(FUClass.MEM_PORT, 0) is None  # 2 ports

    def test_fp_div_unpipelined(self, pool):
        assert pool.acquire(FUClass.FP_DIV, 0) == 12
        assert pool.acquire(FUClass.FP_MULT, 5) is None
        assert pool.acquire(FUClass.FP_MULT, 12) == 4

    def test_spare_units_respected(self):
        pool = FUPool(starting_config().with_spares(alu=2, mult=1))
        grants = [pool.acquire(FUClass.INT_ALU, 0) for _ in range(7)]
        assert grants[:6] == [1] * 6 and grants[6] is None
        assert pool.acquire(FUClass.INT_MULT, 0) == 3
        assert pool.acquire(FUClass.INT_DIV, 0) == 20  # second unit


class TestAvailability:
    def test_utilization(self, pool):
        """A successful acquire is the issue record utilisation counts."""
        pool.acquire(FUClass.INT_ALU, 0)
        pool.acquire(FUClass.INT_MULT, 0)
        assert pool.acquire(FUClass.INT_DIV, 0) is None  # unit busy
        assert pool.issues["ialu"] == 1
        assert pool.issues["imultdiv"] == 1
        assert pool.issues["mem"] == 0

    def test_failed_acquire_counts_nothing(self, pool):
        grants = [pool.acquire(FUClass.MEM_PORT, 0) for _ in range(3)]
        assert grants[2] is None
        assert pool.issues["mem"] == 2

    def test_utilization_split_by_stream(self, pool):
        """Both streams' issues land in the one per-pool record; the
        R-stream total is ``Stats.issued_r``."""
        for _ in range(3):
            pool.acquire(FUClass.INT_ALU, 0)
        pool.acquire(FUClass.INT_ALU, 0, r_stream=True)
        assert pool.acquire_r(FUClass.INT_MULT, 0, 2) == 1
        assert pool.issues == {"ialu": 4, "imultdiv": 1, "fpadd": 0,
                               "fpmultdiv": 0, "mem": 0}
        assert not hasattr(pool, "issues_r")

    def test_utilization_split_zero_cycles(self, pool):
        assert set(pool.issues) == {"ialu", "imultdiv", "fpadd",
                                    "fpmultdiv", "mem"}
        assert all(v == 0 for v in pool.issues.values())


class TestNeverExhausted:
    """Which pools never failed an acquire, ``acquire_r`` or
    ``available``: a unit added to one of them would never be used."""

    ALL = {"int_alu", "int_mult", "fp_alu", "fp_mult", "mem_ports"}

    def test_untouched_pools_stay_unexhausted(self, pool):
        assert pool.never_exhausted() == self.ALL

    def test_granted_acquires_leave_the_pool_unexhausted(self, pool):
        for _ in range(4):
            assert pool.acquire(FUClass.INT_ALU, 0) == 1
        assert pool.never_exhausted() == self.ALL

    def test_failed_acquire_marks_the_pool(self, pool):
        assert pool.acquire(FUClass.INT_DIV, 0) == 20
        assert pool.acquire(FUClass.INT_MULT, 1) is None
        assert pool.never_exhausted() == self.ALL - {"int_mult"}

    def test_partial_r_grant_marks_the_pool(self, pool):
        assert pool.acquire_r(FUClass.INT_ALU, 0, 5) == 4
        assert pool.never_exhausted() == self.ALL - {"int_alu"}

    def test_exact_r_grant_of_the_last_free_unit_does_not(self, pool):
        assert pool.acquire(FUClass.INT_ALU, 0) == 1
        assert pool.acquire_r(FUClass.INT_ALU, 0, 3) == 3
        assert pool.never_exhausted() == self.ALL

    def test_failed_available_marks_the_pool(self, pool):
        for _ in range(2):
            assert pool.acquire(FUClass.MEM_PORT, 0) == 0
        assert pool.available(FUClass.MEM_PORT, 1)
        assert pool.never_exhausted() == self.ALL
        for _ in range(2):
            pool.acquire(FUClass.MEM_PORT, 1)
        assert not pool.available(FUClass.MEM_PORT, 1)
        assert pool.never_exhausted() == self.ALL - {"mem_ports"}

    def test_acquired_empty_pool_is_marked(self):
        pool = FUPool(starting_config(fp_mult=0))
        assert pool.never_exhausted() == self.ALL
        assert pool.acquire(FUClass.FP_DIV, 0) is None
        assert pool.never_exhausted() == self.ALL - {"fp_mult"}
