"""Unit tests for the set-associative cache."""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.mem.cache import SetAssociativeCache

#: Table 2's L1 timing, passed explicitly as the hierarchy does.
L1_TIMING = {"line_size": DEFAULT_CONFIG.cache_line_bytes,
             "tag_latency": DEFAULT_CONFIG.l1_tag_latency,
             "data_latency": DEFAULT_CONFIG.l1_data_latency}


def make(size=4096, ways=4, **kwargs):
    return SetAssociativeCache("T", size_bytes=size, ways=ways,
                               **{**L1_TIMING, **kwargs})


class TestAccess:
    def test_miss_then_hit(self):
        cache = make()
        hit, latency = cache.access(100)
        assert not hit and latency == cache.miss_latency
        cache.fill(100)
        hit, latency = cache.access(100)
        assert hit and latency == cache.hit_latency
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_write_hit_dirties_line(self):
        cache = make()
        cache.fill(100)
        cache.access(100, write=True, data=b"d" * 64)
        line = cache.lookup(100)
        assert line.dirty and line.data == b"d" * 64

    def test_lookup_has_no_side_effects(self):
        cache = make()
        cache.fill(100)
        hits = cache.stats.hits
        cache.lookup(100)
        assert cache.stats.hits == hits

    def test_parallel_vs_serial_latency(self):
        parallel = make(tag_latency=2, data_latency=8, serial_tag_data=False)
        serial = make(tag_latency=10, data_latency=24, serial_tag_data=True)
        assert parallel.hit_latency == 8
        assert serial.hit_latency == 34

    def test_size_must_divide(self):
        with pytest.raises(ValueError):
            SetAssociativeCache("bad", size_bytes=1000, ways=3, **L1_TIMING)


class TestFillAndEvict:
    def test_eviction_within_full_set(self):
        cache = make(size=2 * 64 * 2, ways=2)  # 2 sets, 2 ways
        # Tags 0, 2, 4 all map to set 0.
        cache.fill(0)
        cache.fill(2)
        assert cache.fill(4) is None  # a clean victim is not reported
        assert 0 not in cache  # LRU
        assert 2 in cache and 4 in cache
        assert cache.stats.evictions == 1

    def test_dirty_eviction_reports_data(self):
        cache = make(size=2 * 64 * 2, ways=2)
        cache.fill(0, data=b"x" * 64, dirty=True)
        cache.fill(2)
        evicted = cache.fill(4)
        assert evicted.dirty and evicted.data == b"x" * 64
        assert cache.stats.dirty_evictions == 1

    def test_refill_merges_instead_of_evicting(self):
        cache = make()
        cache.fill(100, data=b"a" * 64, dirty=True)
        assert cache.fill(100, data=None) is None
        line = cache.lookup(100)
        assert line.dirty and line.data == b"a" * 64

    def test_hit_on_recently_filled_prefers_mru(self):
        cache = make(size=2 * 64 * 2, ways=2)
        cache.fill(0)
        cache.fill(2)
        cache.access(0)          # 0 is MRU; 2 is LRU
        assert cache.fill(4) is None
        assert 2 not in cache
        assert 0 in cache and 4 in cache
        assert cache.stats.evictions == 1

    def test_len_and_contains(self):
        cache = make()
        cache.fill(1)
        cache.fill(2)
        assert len(cache) == 2
        assert 1 in cache and 3 not in cache


class TestInvalidateAndRetag:
    def test_invalidate_returns_line(self):
        cache = make()
        cache.fill(100, data=b"v" * 64, dirty=True)
        line = cache.invalidate(100)
        assert line.dirty and line.data == b"v" * 64
        assert 100 not in cache

    def test_invalidate_missing_returns_none(self):
        cache = make()
        assert cache.invalidate(123) is None

    def test_retag_same_set(self):
        cache = make(size=64 * 4, ways=4)  # 1 set
        cache.fill(10, data=b"r" * 64, dirty=True)
        assert cache.retag(10, 20) == (True, None)
        assert 10 not in cache and 20 in cache
        line = cache.lookup(20)
        assert line.data == b"r" * 64 and line.dirty

    def test_retag_cross_set_moves_line(self):
        cache = make(size=2 * 64 * 2, ways=2)  # 2 sets
        cache.fill(0, data=b"m" * 64)
        assert cache.retag(0, 1) == (True, None)  # set 0 -> set 1
        assert cache.lookup(1).data == b"m" * 64
        assert 0 not in cache

    def test_retag_missing_fails(self):
        cache = make()
        assert cache.retag(1, 2) == (False, None)

    def test_retag_onto_resident_target_fails(self):
        cache = make()
        cache.fill(1)
        cache.fill(2)
        assert cache.retag(1, 2) == (False, None)

    def test_dirty_lines_listing(self):
        cache = make()
        cache.fill(1, dirty=True)
        cache.fill(2, dirty=False)
        assert [line.tag for line in cache.dirty_lines()] == [1]

    def test_prefetch_stats(self):
        cache = make()
        cache.fill(5, prefetch=True)
        assert cache.stats.prefetch_fills == 1
        cache.access(5)
        assert cache.stats.prefetch_hits == 1
