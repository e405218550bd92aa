"""Unit tests for the LRU and DRRIP replacement policies."""

import random

import pytest

from repro.config import DEFAULT_CONFIG
from repro.mem.cache import SetAssociativeCache
from repro.mem.replacement import DRRIPPolicy, make_policy


class TestFactory:
    def test_known_policies(self):
        # LRU has no policy object: the cache keeps each set's recency.
        assert make_policy("lru", 4, 2) is None
        assert isinstance(make_policy("DRRIP", 4, 2), DRRIPPolicy)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            make_policy("random", 4, 2)


def lru_cache(num_sets, ways, policy="lru"):
    """A cache of *num_sets* sets with Table 2's L1 timing."""
    return SetAssociativeCache(
        "LRU", size_bytes=num_sets * ways * 64, ways=ways, line_size=64,
        tag_latency=DEFAULT_CONFIG.l1_tag_latency,
        data_latency=DEFAULT_CONFIG.l1_data_latency, policy=policy)


class TestLRU:
    def test_prefers_free_way(self):
        cache = lru_cache(1, 4)
        for tag in range(4):
            cache.fill(tag)
        cache.invalidate(1)
        cache.fill(4)
        assert cache._lines[0][1].tag == 4  # the freed way
        assert cache.stats.evictions == 0
        assert set(cache.resident_tags()) == {0, 2, 3, 4}

    def test_evicts_least_recent(self):
        cache = lru_cache(1, 3)
        for tag in range(3):
            cache.fill(tag)
        cache.access(0)              # 1 is now LRU
        cache.fill(3)
        assert set(cache.resident_tags()) == {0, 2, 3}
        assert cache._lines[0][1].tag == 3  # in the victim's way

    def test_sets_are_independent(self):
        cache = lru_cache(2, 2)      # even tags in set 0, odd in set 1
        for tag in (0, 3, 2, 1):
            cache.fill(tag)
        cache.fill(4)
        assert set(cache.resident_tags()) == {1, 2, 3, 4}
        cache.fill(5)
        assert set(cache.resident_tags()) == {1, 2, 4, 5}


class TestDRRIP:
    def test_prefers_free_way(self):
        cache = lru_cache(1, 4, policy="drrip")
        for tag in range(4):
            cache.fill(tag)
        cache.invalidate(1)
        cache.fill(4)
        assert cache._lines[0][1].tag == 4  # the freed way
        assert cache.stats.evictions == 0
        assert set(cache.resident_tags()) == {0, 2, 3, 4}

    def test_hit_promotion_protects_line(self):
        policy = DRRIPPolicy(64, 2)
        policy.on_fill(0, 0)
        policy.on_fill(0, 1)
        policy.on_hit(0, 0)  # RRPV -> 0
        assert policy.victim_full(0) == 1

    def test_victim_is_max_rrpv(self):
        policy = DRRIPPolicy(64, 4)
        for way in range(4):
            policy.on_fill(0, way)
        policy.on_hit(0, 2)
        victim = policy.victim_full(0)
        assert victim != 2

    def test_aging_when_no_distant_line(self):
        policy = DRRIPPolicy(64, 2)
        policy.on_fill(0, 0)
        policy.on_fill(0, 1)
        policy.on_hit(0, 0)
        policy.on_hit(0, 1)
        # All RRPVs are 0; victim search must age and still terminate.
        assert policy.victim_full(0) in (0, 1)
        assert [policy.rrpv(0, way) for way in (0, 1)] == [
            DRRIPPolicy.MAX_RRPV] * 2

    def test_prefetch_inserted_distant(self):
        policy = DRRIPPolicy(64, 2)
        policy.on_fill(0, 0, prefetch=True)
        policy.on_fill(0, 1, prefetch=False)
        # The prefetched line has the more distant prediction.
        assert policy.replace(0) == 0

    def test_set_dueling_moves_psel(self):
        policy = DRRIPPolicy(64, 4)
        start = policy._psel
        # Misses in SRRIP leader sets push PSEL up.
        srrip_leader = next(s for s, kind in policy._leader.items()
                            if kind == "srrip")
        for _ in range(10):
            policy.on_fill(srrip_leader, 0)
        assert policy._psel > start

    def test_follower_sets_follow_psel(self):
        policy = DRRIPPolicy(1024, 2)
        follower = next(s for s in range(1024) if s not in policy._leader)
        policy._psel = 0                       # SRRIP: insert long
        policy.on_fill(follower, 0)
        assert policy.rrpv(follower, 0) == DRRIPPolicy.LONG_RRPV
        policy._psel = policy._psel_max        # BRRIP: insert distant
        policy.on_fill(follower, 1)
        assert policy.rrpv(follower, 1) == DRRIPPolicy.DISTANT_RRPV
        assert policy._psel == policy._psel_max  # followers never vote

    def test_brrip_occasionally_inserts_long(self):
        policy = DRRIPPolicy(1024, 1)
        policy._psel = policy._psel_max  # force BRRIP for followers
        follower = next(s for s in range(1024) if s not in policy._leader)
        rrpvs = set()
        for _ in range(64):
            policy.on_fill(follower, 0)
            rrpvs.add(policy.rrpv(follower, 0))
        assert DRRIPPolicy.DISTANT_RRPV in rrpvs
        assert DRRIPPolicy.LONG_RRPV in rrpvs


class TestReplaceMatchesReference:
    """DRRIP's ``replace`` — one call that fills a full set — equals
    ``victim_full`` then ``on_fill`` on a twin policy: same way, same
    RRPVs and same set-dueling state after every step of seeded fill/hit
    sequences."""

    @staticmethod
    def state(policy, set_index):
        """Every slot of *policy*, per-set tables reduced to one set."""
        state = {}
        for name in type(policy).__slots__:
            value = getattr(policy, name)
            if isinstance(value, list):
                value = value[set_index]
            state[name] = value
        return state

    @pytest.mark.parametrize("seed", range(6))
    def test_same_way_and_state(self, seed):
        rng = random.Random(seed)
        num_sets, ways = 128, 16
        fused = DRRIPPolicy(num_sets, ways)
        split = DRRIPPolicy(num_sets, ways)
        for _ in range(20000):
            set_index = rng.randrange(num_sets)
            if rng.random() < 0.3:
                way = rng.randrange(ways)
                fused.on_hit(set_index, way)
                split.on_hit(set_index, way)
            else:
                prefetch = rng.random() < 0.4
                way = split.victim_full(set_index)
                split.on_fill(set_index, way, prefetch=prefetch)
                assert fused.replace(set_index, prefetch) == way
            assert (self.state(fused, set_index)
                    == self.state(split, set_index))
