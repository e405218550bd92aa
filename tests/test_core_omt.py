"""Unit tests for the Overlay Mapping Table and OMT cache (Section 4.4.4)."""

import pytest

from repro.core.obitvector import OBitVector
from repro.core.oms import OverlayMemoryStore
from repro.core.omt import OMT_ENTRY_BITS, OMTCache, OverlayMappingTable


class TestTable:
    def test_lookup_missing_returns_none(self):
        omt = OverlayMappingTable()
        assert omt.lookup(42) is None

    def test_ensure_creates_empty_entry(self):
        omt = OverlayMappingTable()
        entry = omt.ensure(42)
        assert entry.opn == 42
        assert entry.obitvector.is_empty()
        assert entry.segment is None
        assert 42 in omt

    def test_ensure_is_idempotent(self):
        omt = OverlayMappingTable()
        assert omt.ensure(1) is omt.ensure(1)
        assert len(omt) == 1

    def test_remove(self):
        omt = OverlayMappingTable()
        omt.ensure(1)
        removed = omt.remove(1)
        assert removed is not None
        assert omt.lookup(1) is None
        assert omt.remove(1) is None


class TestEntryFormat:
    def test_entry_is_512_bits(self):
        """Section 4.5: each OMT cache entry consumes 512 bits."""
        assert OMT_ENTRY_BITS == 512


class TestCache:
    def make(self, capacity=4):
        omt = OverlayMappingTable()
        return omt, OMTCache(omt, capacity=capacity)

    def test_miss_then_hit(self):
        omt, cache = self.make()
        omt.ensure(7)
        entry, cost = cache.lookup(7)
        assert entry is not None and cost > 0
        entry, cost = cache.lookup(7)
        assert cost == 0
        assert cache.stats.cache_hits == 1
        assert cache.stats.cache_misses == 1

    def test_missing_entry_still_costs_a_walk(self):
        _, cache = self.make()
        entry, cost = cache.lookup(9)
        assert entry is None
        assert cost > 0
        assert cache.stats.walks == 1

    def test_create_materialises_entry(self):
        omt, cache = self.make()
        entry, _ = cache.lookup(9, create=True)
        assert entry is not None
        assert omt.lookup(9) is entry

    def test_lru_eviction(self):
        omt, cache = self.make(capacity=2)
        for opn in (1, 2):
            omt.ensure(opn)
            cache.lookup(opn)
        cache.lookup(1)       # 2 is now LRU
        omt.ensure(3)
        cache.lookup(3)       # evicts 2
        assert 1 in cache and 3 in cache and 2 not in cache
        assert cache.stats.writebacks == 1

    def test_eviction_writeback_charged(self):
        omt, cache = self.make(capacity=1)
        omt.ensure(1)
        cache.lookup(1)
        omt.ensure(2)
        _, cost = cache.lookup(2)
        # Walk + eviction writeback are both memory accesses.
        assert cost >= cache._walk_levels + 1

    def test_segment_metadata_fetch_charged(self):
        omt, cache = self.make()
        oms = OverlayMemoryStore()
        entry = omt.ensure(5)
        entry.segment = oms.allocate_segment(1)  # sub-4KB: has metadata
        _, with_metadata = cache.lookup(5)
        omt.ensure(6)  # no segment
        _, without = cache.lookup(6)
        assert with_metadata == without + 1

    def test_invalidate(self):
        omt, cache = self.make()
        omt.ensure(1)
        cache.lookup(1)
        cache.invalidate(1)
        assert 1 not in cache
        _, cost = cache.lookup(1)
        assert cost > 0  # a fresh walk

    def test_flush(self):
        omt, cache = self.make()
        for opn in (1, 2, 3):
            omt.ensure(opn)
            cache.lookup(opn)
        cache.flush()
        assert len(cache) == 0

    def test_zero_capacity_cache_always_walks(self):
        omt, cache = self.make(capacity=0)
        omt.ensure(1)
        _, cost1 = cache.lookup(1)
        _, cost2 = cache.lookup(1)
        assert cost1 > 0 and cost2 > 0
        assert cache.stats.cache_hits == 0

    def test_negative_capacity_rejected(self):
        omt = OverlayMappingTable()
        with pytest.raises(ValueError):
            OMTCache(omt, capacity=-1)

    def test_hit_rate(self):
        omt, cache = self.make()
        omt.ensure(1)
        cache.lookup(1)
        cache.lookup(1)
        assert cache.stats.hit_rate == pytest.approx(0.5)
