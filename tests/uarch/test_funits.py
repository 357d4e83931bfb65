"""Unit tests for the functional-unit pools."""

from types import SimpleNamespace

import pytest

from repro.isa.instructions import FUClass
from repro.uarch import FUPool, StageMetrics, starting_config


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
        for _ in range(3):
            pool.acquire(FUClass.INT_ALU, 0)
        pool.acquire(FUClass.INT_ALU, 0, r_stream=True)
        split = StageMetrics().state_dict(SimpleNamespace(fupool=pool))
        assert split["fu_issued"]["P"]["ialu"] == 3
        assert split["fu_issued"]["R"]["ialu"] == 1
        # P + R always recompose the per-pool issue count.
        for key, total in pool.issues.items():
            assert (split["fu_issued"]["P"][key]
                    + split["fu_issued"]["R"][key]) == total

    def test_utilization_split_zero_cycles(self, pool):
        split = StageMetrics().state_dict(SimpleNamespace(fupool=pool))
        assert set(split["fu_issued"]) == {"P", "R"}
        assert all(v == 0 for v in split["fu_issued"]["P"].values())
        assert all(v == 0 for v in split["fu_issued"]["R"].values())
