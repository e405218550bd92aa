"""Unit tests for the caches' LRU and DRRIP replacement."""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.mem.cache import (DISTANT_RRPV, LONG_RRPV, MAX_RRPV, PSEL_MAX,
                             SetAssociativeCache)


def lru_cache(num_sets, ways, policy="lru"):
    """A cache of *num_sets* sets with Table 2's L1 timing."""
    return SetAssociativeCache(
        "LRU", size_bytes=num_sets * ways * 64, ways=ways, line_size=64,
        tag_latency=DEFAULT_CONFIG.l1_tag_latency,
        data_latency=DEFAULT_CONFIG.l1_data_latency, policy=policy)


class TestFactory:
    """The constructor's *policy* argument picks the replacement."""

    def test_known_policies(self):
        assert lru_cache(4, 2)._lru
        assert not lru_cache(4, 2, policy="DRRIP")._lru

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            lru_cache(4, 2, policy="random")

class TestLRU:
    def test_prefers_free_way(self):
        cache = lru_cache(1, 4)
        for tag in range(4):
            cache.fill(tag)
        cache.invalidate(1)
        cache.fill(4)
        assert cache._tags[1] == 4  # the freed way
        assert cache.stats.evictions == 0
        assert set(cache.resident_tags()) == {0, 2, 3, 4}

    def test_evicts_least_recent(self):
        cache = lru_cache(1, 3)
        for tag in range(3):
            cache.fill(tag)
        cache.access(0)              # 1 is now LRU
        cache.fill(3)
        assert set(cache.resident_tags()) == {0, 2, 3}
        assert cache._tags[1] == 3  # in the victim's way

    def test_sets_are_independent(self):
        cache = lru_cache(2, 2)      # even tags in set 0, odd in set 1
        for tag in (0, 3, 2, 1):
            cache.fill(tag)
        cache.fill(4)
        assert set(cache.resident_tags()) == {1, 2, 3, 4}
        cache.fill(5)
        assert set(cache.resident_tags()) == {1, 2, 4, 5}


class TestDRRIP:
    """A DRRIP cache driven through ``fill`` and ``access``.  Tag *t*
    lives in set ``t % num_sets``; victims are read from which tag left.
    With 64 sets every set is a leader: set 0 of SRRIP, inserting at
    LONG_RRPV."""

    def test_prefers_free_way(self):
        cache = lru_cache(1, 4, policy="drrip")
        for tag in range(4):
            cache.fill(tag)
        cache.invalidate(1)
        cache.fill(4)
        assert cache._tags[1] == 4  # the freed way
        assert cache.stats.evictions == 0
        assert set(cache.resident_tags()) == {0, 2, 3, 4}

    def test_hit_promotion_protects_line(self):
        cache = lru_cache(64, 2, policy="drrip")
        cache.fill(0)
        cache.fill(64)
        cache.access(0)      # RRPV -> 0
        assert cache.rrpv(0, 0) == 0
        cache.fill(128)
        assert set(cache.resident_tags()) == {0, 128}

    def test_victim_is_max_rrpv(self):
        cache = lru_cache(64, 4, policy="drrip")
        for tag in range(0, 4 * 64, 64):
            cache.fill(tag)
        cache.access(2 * 64)  # way 2
        cache.fill(4 * 64)
        assert 2 * 64 in cache and len(cache) == 4

    def test_aging_when_no_distant_line(self):
        cache = lru_cache(64, 2, policy="drrip")
        cache.fill(0)
        cache.fill(64)
        cache.access(0)
        cache.access(64)
        # All RRPVs are 0; the fill must age the set and still evict.
        cache.fill(128)
        assert set(cache.resident_tags()) == {64, 128}
        assert cache.rrpv(0, 0) == LONG_RRPV   # the incoming line
        assert cache.rrpv(0, 1) == MAX_RRPV    # aged from 0

    def test_prefetch_inserted_distant(self):
        cache = lru_cache(64, 2, policy="drrip")
        cache.fill(0, prefetch=True)
        cache.fill(64)
        assert [cache.rrpv(0, way) for way in (0, 1)] == [DISTANT_RRPV,
                                                          LONG_RRPV]
        # The prefetched line has the more distant prediction.
        cache.fill(128)
        assert set(cache.resident_tags()) == {64, 128}

    def test_set_dueling_moves_psel(self):
        cache = lru_cache(64, 4, policy="drrip")
        start = cache._psel
        # Misses in SRRIP leader sets push PSEL up.
        srrip_leader = next(s for s, kind in cache._leader.items()
                            if kind == "srrip")
        for k in range(10):
            cache.fill(srrip_leader + 64 * k)
        assert cache._psel > start

    def test_follower_sets_follow_psel(self):
        cache = lru_cache(1024, 2, policy="drrip")
        follower = next(s for s in range(1024) if s not in cache._leader)
        cache._psel = 0                        # SRRIP: insert long
        cache.fill(follower)
        assert cache.rrpv(follower, 0) == LONG_RRPV
        cache._psel = PSEL_MAX                 # BRRIP: insert distant
        cache.fill(follower + 1024)
        assert cache.rrpv(follower, 1) == DISTANT_RRPV
        assert cache._psel == PSEL_MAX         # followers never vote

    def test_brrip_occasionally_inserts_long(self):
        cache = lru_cache(1024, 1, policy="drrip")
        cache._psel = PSEL_MAX  # force BRRIP for followers
        follower = next(s for s in range(1024) if s not in cache._leader)
        rrpvs = set()
        for k in range(64):
            cache.fill(follower + 1024 * k)
            rrpvs.add(cache.rrpv(follower, 0))
        assert DISTANT_RRPV in rrpvs
        assert LONG_RRPV in rrpvs
