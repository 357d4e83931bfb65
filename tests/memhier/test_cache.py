"""Unit tests for the set-associative cache model."""

import pytest

from repro.memhier import Cache, CacheParams


def make_cache(size=1024, assoc=2, line=32, hit=2, policy="lru",
               next_level=None, miss_latency=70):
    params = CacheParams("test", size, assoc, line, hit, policy)
    return Cache(params, next_level=next_level, miss_latency=miss_latency)


class TestParamsValidation:
    def test_valid(self):
        params = CacheParams("c", 32 * 1024, 2, 32, 2)
        assert params.n_sets == 512

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(size=0),
            dict(assoc=0),
            dict(line_size=0),
            dict(line_size=24),           # not a power of two
            dict(size=1000),              # not divisible
            dict(size=96, assoc=1, line_size=32),  # 3 sets: not pow2
            dict(policy="clock"),
            dict(hit_latency=0),
            dict(hit_latency=-3),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        base = dict(name="c", size=1024, assoc=2, line_size=32,
                    hit_latency=2, policy="lru")
        base.update({k: v for k, v in kwargs.items() if k != "name"})
        with pytest.raises(ValueError):
            CacheParams(**base)


class TestHitMiss:
    def test_first_access_misses(self):
        cache = make_cache()
        latency = cache.access(0x1000)
        assert latency == 2 + 70
        assert cache.misses == 1 and cache.hits == 0

    def test_second_access_hits(self):
        cache = make_cache()
        cache.access(0x1000)
        assert cache.access(0x1000) == 2
        assert cache.hits == 1

    def test_same_line_hits(self):
        cache = make_cache(line=32)
        cache.access(0x1000)
        assert cache.access(0x101F) == 2  # same 32-byte line
        assert cache.access(0x1020) > 2   # next line misses

    def test_miss_rate(self):
        cache = make_cache()
        cache.access(0x1000)
        cache.access(0x1000)
        cache.access(0x2000)
        assert cache.miss_rate == pytest.approx(2 / 3)

    def test_probe_does_not_change_state(self):
        cache = make_cache()
        assert not cache.probe(0x1000)
        cache.access(0x1000)
        assert cache.probe(0x1000)
        assert cache.hits == 0 and cache.misses == 1  # probe uncounted


class TestReplacement:
    def test_lru_evicts_least_recent(self):
        # 2-way, set-mapped: three lines mapping to the same set.
        cache = make_cache(size=128, assoc=2, line=32)  # 2 sets
        set_stride = 64  # lines 0x0, 0x40 -> set 0
        a, b, c = 0x0, set_stride * 2, set_stride * 4
        cache.access(a)
        cache.access(b)
        cache.access(a)       # a is now most recent
        cache.access(c)       # evicts b
        assert cache.probe(a)
        assert not cache.probe(b)
        assert cache.probe(c)

    def test_fifo_evicts_oldest(self):
        cache = make_cache(size=128, assoc=2, line=32, policy="fifo")
        a, b, c = 0x0, 0x80, 0x100
        cache.access(a)
        cache.access(b)
        cache.access(a)       # re-access must NOT refresh FIFO order
        cache.access(c)       # evicts a (oldest insertion)
        assert not cache.probe(a)
        assert cache.probe(b)

    def test_random_policy_deterministic_with_seed(self):
        def run():
            cache = make_cache(policy="random")
            for i in range(200):
                cache.access((i * 3728) % 65536 & ~3)
            return cache.hits, cache.misses
        assert run() == run()

    def test_random_policy_clone_evicts_the_same_ways(self):
        cache = make_cache(size=256, assoc=4, line=32, policy="random")
        addresses = [(i * 2654435761) % 8192 & ~31 for i in range(400)]
        for addr in addresses[:200]:   # fill every set: misses now evict
            cache.access(addr)
        clone = cache.clone_state()

        def ways_after_each(target):
            history = []
            for addr in addresses[200:]:
                target.access(addr)
                history.append((list(target._tags), list(target._valid)))
            return history

        # The original runs first: a clone that shared its RNG would
        # continue its draws instead of repeating them.
        original = ways_after_each(cache)
        assert ways_after_each(clone) == original
        assert clone.evictions == cache.evictions > 0

    def test_only_random_policy_keeps_an_rng(self):
        for policy in ("lru", "fifo"):
            cache = make_cache(policy=policy)
            assert cache._rng is None
            assert cache.clone_state()._rng is None
        assert make_cache(policy="random").clone_state()._rng is not None

    def test_full_associativity_within_set(self):
        cache = make_cache(size=256, assoc=4, line=32, policy="lru")  # 2 sets
        addresses = [i * 64 for i in range(4)]  # all map to set 0
        for addr in addresses:
            cache.access(addr)
        for addr in addresses:
            assert cache.probe(addr)


class TestWriteback:
    def test_dirty_eviction_counted(self):
        cache = make_cache(size=64, assoc=1, line=32)  # 2 sets, direct-mapped
        cache.access(0x0, is_write=True)
        cache.access(0x40, is_write=False)  # evicts dirty line 0x0
        assert cache.evictions == 1
        assert cache.writebacks == 1

    def test_clean_eviction_not_written_back(self):
        cache = make_cache(size=64, assoc=1, line=32)
        cache.access(0x0, is_write=False)
        cache.access(0x40, is_write=False)
        assert cache.evictions == 1
        assert cache.writebacks == 0

    def test_write_hit_marks_dirty(self):
        cache = make_cache(size=64, assoc=1, line=32)
        cache.access(0x0, is_write=False)
        cache.access(0x4, is_write=True)   # write hit dirties the line
        cache.access(0x40)                 # evict
        assert cache.writebacks == 1


class TestMultiLevel:
    def test_miss_latency_includes_next_level(self):
        l2 = make_cache(size=4096, assoc=4, line=64, hit=12, miss_latency=70)
        l1 = make_cache(size=1024, assoc=2, line=32, hit=2, next_level=l2)
        # Cold: L1 miss + L2 miss + memory.
        assert l1.access(0x1000) == 2 + 12 + 70
        # L1 hit.
        assert l1.access(0x1000) == 2
        # Evict from L1 but still in L2: L1 miss + L2 hit.
        conflict = 0x1000 + 1024 // 2
        l1.access(conflict)
        l1.access(conflict + 1024)
        assert l1.access(0x1000) == 2 + 12

    def test_stats_reset(self):
        cache = make_cache()
        cache.access(0x1000)
        cache.reset_stats()
        assert cache.accesses == 0
        assert cache.stat_dict()["misses"] == 0


class TestPrefetch:
    def test_next_line_prefetched_on_miss(self):
        params = CacheParams("pf", 1024, 2, 32, 2, prefetch_next_line=True)
        cache = Cache(params, miss_latency=70)
        cache.access(0x1000)          # miss; prefetches 0x1020
        assert cache.prefetches == 1
        assert cache.access(0x1020) == 2  # hit thanks to the prefetch

    def test_prefetch_skipped_when_resident(self):
        params = CacheParams("pf", 1024, 2, 32, 2, prefetch_next_line=True)
        cache = Cache(params, miss_latency=70)
        cache.access(0x1020)
        cache.access(0x1000)          # next line already resident
        # 0x1000's prefetch target (0x1020) was resident; only 0x1020's
        # own prefetch of 0x1040 counts.
        assert cache.prefetches == 1

    def test_prefetch_does_not_count_as_access(self):
        params = CacheParams("pf", 1024, 2, 32, 2, prefetch_next_line=True)
        cache = Cache(params, miss_latency=70)
        cache.access(0x1000)
        assert cache.accesses == 1

    def test_prefetch_warms_next_level_too(self):
        l2_params = CacheParams("l2", 4096, 4, 64, 12)
        l2 = Cache(l2_params, miss_latency=70)
        l1_params = CacheParams("l1", 1024, 2, 32, 2,
                                prefetch_next_line=True)
        l1 = Cache(l1_params, next_level=l2)
        l1.access(0x1000)
        assert l2.probe(0x1020)

    def test_sequential_walk_benefits(self):
        plain = Cache(CacheParams("a", 1024, 2, 32, 2), miss_latency=70)
        pf = Cache(CacheParams("b", 1024, 2, 32, 2,
                               prefetch_next_line=True), miss_latency=70)
        total_plain = sum(plain.access(addr) for addr in range(0, 512, 4))
        total_pf = sum(pf.access(addr) for addr in range(0, 512, 4))
        assert total_pf < total_plain

    def test_off_by_default(self):
        cache = make_cache()
        cache.access(0x1000)
        assert cache.prefetches == 0
