"""Stateful model checks: the cache against reference models.

The first reference keeps, per set, an ordered list of resident tags
(most recently used last).  Every access outcome (hit/miss) and the
resident set must match the production cache exactly, across arbitrary
access sequences.  The second is the per-set replacement-order lists
the cache's flat replacement stamps replaced: for ``lru`` and ``fifo``
at 4 ways, with and without next-line prefetch, every way's tag and
dirt and every counter must match, in the cache and in a clone taken
mid-sequence.
"""

from collections import OrderedDict
from typing import Dict

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.memhier import Cache, CacheParams

SIZE = 256
ASSOC = 2
LINE = 32
N_SETS = SIZE // (ASSOC * LINE)  # 4 sets


class _RefLRU:
    """Reference: per-set OrderedDict of tags (LRU first)."""

    def __init__(self) -> None:
        self.sets: Dict[int, "OrderedDict[int, bool]"] = {
            index: OrderedDict() for index in range(N_SETS)
        }

    def access(self, addr: int, is_write: bool) -> bool:
        block = addr // LINE
        set_index = block % N_SETS
        tag = block // N_SETS
        entries = self.sets[set_index]
        if tag in entries:
            entries.move_to_end(tag)
            if is_write:
                entries[tag] = True
            return True
        entries[tag] = is_write
        if len(entries) > ASSOC:
            entries.popitem(last=False)
        return False

    def resident(self, addr: int) -> bool:
        block = addr // LINE
        return (block // N_SETS) in self.sets[block % N_SETS]


class CacheModelMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.cache = Cache(CacheParams("mc", SIZE, ASSOC, LINE, 2),
                           miss_latency=50)
        self.reference = _RefLRU()
        self.touched = set()

    @rule(
        addr=st.integers(min_value=0, max_value=4095),
        is_write=st.booleans(),
    )
    def access(self, addr, is_write):
        expected_hit = self.reference.access(addr, is_write)
        latency = self.cache.access(addr, is_write=is_write)
        actual_hit = latency == 2
        assert actual_hit == expected_hit, (
            f"addr={addr:#x} write={is_write}: "
            f"cache {'hit' if actual_hit else 'miss'}, "
            f"reference {'hit' if expected_hit else 'miss'}"
        )
        self.touched.add(addr)

    @invariant()
    def residency_matches(self):
        for addr in list(self.touched)[:32]:
            assert self.cache.probe(addr) == self.reference.resident(addr)

    @invariant()
    def counters_consistent(self):
        assert self.cache.hits + self.cache.misses == len(
            [1 for _ in range(self.cache.accesses)]
        )


TestCacheAgainstModel = CacheModelMachine.TestCase
TestCacheAgainstModel.settings = settings(
    max_examples=40, stateful_step_count=80, deadline=None
)


# ---------------------------------------------------------------------------
# Replacement stamps against per-set order lists.
# ---------------------------------------------------------------------------

ORDER_ASSOC = 4
ORDER_SIZE = 512
ORDER_SETS = ORDER_SIZE // (ORDER_ASSOC * LINE)  # 4 sets


class _RefOrderCache:
    """Reference: the per-set replacement-order lists ``Cache`` once kept.

    Each set holds its ways' tags (``None`` when invalid) and an order
    list of way indices whose head is the next victim; an LRU hit and
    every LRU or FIFO fill move the way to the tail.
    """

    def __init__(self, policy: str, prefetch: bool) -> None:
        self.policy = policy
        self.prefetch = prefetch
        self.tags = [[None] * ORDER_ASSOC for _ in range(ORDER_SETS)]
        self.dirty = [[False] * ORDER_ASSOC for _ in range(ORDER_SETS)]
        self.order = [list(range(ORDER_ASSOC)) for _ in range(ORDER_SETS)]
        self.counters = dict(hits=0, misses=0, evictions=0, writebacks=0,
                             prefetches=0)

    @staticmethod
    def _locate(addr):
        block = addr // LINE
        return block % ORDER_SETS, block // ORDER_SETS

    def _touch(self, set_index, way):
        self.order[set_index].remove(way)
        self.order[set_index].append(way)

    def _fill(self, set_index, tag, dirty):
        way = self.order[set_index][0]
        if self.tags[set_index][way] is not None:
            self.counters["evictions"] += 1
            if self.dirty[set_index][way]:
                self.counters["writebacks"] += 1
        self.tags[set_index][way] = tag
        self.dirty[set_index][way] = dirty
        self._touch(set_index, way)

    def access(self, addr, is_write):
        set_index, tag = self._locate(addr)
        ways = self.tags[set_index]
        if tag in ways:
            way = ways.index(tag)
            self.counters["hits"] += 1
            if is_write:
                self.dirty[set_index][way] = True
            if self.policy == "lru":
                self._touch(set_index, way)
            return True
        self.counters["misses"] += 1
        self._fill(set_index, tag, is_write)
        if self.prefetch:
            set_index, tag = self._locate(addr + LINE)
            if tag not in self.tags[set_index]:
                self.counters["prefetches"] += 1
                self._fill(set_index, tag, False)
        return False

    def copy(self):
        clone = _RefOrderCache(self.policy, self.prefetch)
        clone.tags = [list(ways) for ways in self.tags]
        clone.dirty = [list(ways) for ways in self.dirty]
        clone.order = [list(order) for order in self.order]
        clone.counters = dict(self.counters)
        return clone


def _assert_same_state(cache: Cache, reference: _RefOrderCache) -> None:
    """Way-for-way residency and dirt, and every counter, agree."""
    for set_index in range(ORDER_SETS):
        for way in range(ORDER_ASSOC):
            slot = set_index * ORDER_ASSOC + way
            tag = cache._tags[slot] if cache._valid[slot] else None
            assert tag == reference.tags[set_index][way], (set_index, way)
            if tag is not None:
                assert cache._dirty[slot] == reference.dirty[set_index][way]
    stats = cache.stat_dict()
    assert {name: stats[name] for name in reference.counters} \
        == reference.counters


class _OrderModelMachine(RuleBasedStateMachine):
    """A 4-way cache against :class:`_RefOrderCache`, with a clone taken
    mid-sequence that must then evolve like its own reference copy."""

    policy = "lru"
    prefetch = False

    def __init__(self):
        super().__init__()
        params = CacheParams("order", ORDER_SIZE, ORDER_ASSOC, LINE, 2,
                             policy=self.policy,
                             prefetch_next_line=self.prefetch)
        self.cache = Cache(params, miss_latency=50)
        self.reference = _RefOrderCache(self.policy, self.prefetch)
        self.clone = None
        self.clone_reference = None

    @rule(addr=st.integers(min_value=0, max_value=2047),
          is_write=st.booleans())
    def access_both(self, addr, is_write):
        """The same access on the original and (if taken) the clone."""
        expected_hit = self.reference.access(addr, is_write)
        assert (self.cache.access(addr, is_write=is_write) == 2) \
            == expected_hit
        if self.clone is not None:
            self.clone_reference.access(addr, is_write)
            self.clone.access(addr, is_write=is_write)

    @rule(addr=st.integers(min_value=0, max_value=2047),
          is_write=st.booleans())
    def access_original_only(self, addr, is_write):
        """An access the clone must not see."""
        self.reference.access(addr, is_write)
        self.cache.access(addr, is_write=is_write)

    @rule()
    def take_clone(self):
        self.clone = self.cache.clone_state()
        self.clone_reference = self.reference.copy()

    @invariant()
    def original_matches_reference(self):
        _assert_same_state(self.cache, self.reference)

    @invariant()
    def clone_matches_its_reference(self):
        if self.clone is not None:
            _assert_same_state(self.clone, self.clone_reference)


def _order_model_case(policy: str, prefetch: bool):
    machine = type(f"OrderModel_{policy}_{prefetch}", (_OrderModelMachine,),
                   {"policy": policy, "prefetch": prefetch})
    case = machine.TestCase
    case.settings = settings(max_examples=30, stateful_step_count=120,
                             deadline=None)
    return case


TestLruStampsAgainstOrderLists = _order_model_case("lru", False)
TestLruPrefetchStampsAgainstOrderLists = _order_model_case("lru", True)
TestFifoStampsAgainstOrderLists = _order_model_case("fifo", False)
TestFifoPrefetchStampsAgainstOrderLists = _order_model_case("fifo", True)
