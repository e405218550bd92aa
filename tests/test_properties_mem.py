"""Hypothesis property tests for the memory-hierarchy layer."""

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from repro.config import DEFAULT_CONFIG
from repro.mem.cache import SetAssociativeCache
from repro.mem.dram import DRAM
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.mainmemory import MainMemory

pytestmark = pytest.mark.slow

#: Table 2's L1 timing, passed explicitly as the hierarchy does.
L1_TIMING = {"line_size": DEFAULT_CONFIG.cache_line_bytes,
             "tag_latency": DEFAULT_CONFIG.l1_tag_latency,
             "data_latency": DEFAULT_CONFIG.l1_data_latency}

#: No shrinking: it takes minutes on the long op lists below, so a
#: failing example reports at once, at its drawn size.
UNSHRUNK = (Phase.explicit, Phase.reuse, Phase.generate, Phase.target)

slow = settings(max_examples=30, deadline=None, phases=UNSHRUNK,
                suppress_health_check=[HealthCheck.too_slow])

tags = st.integers(0, 255)
#: Long enough that most drawn lists fill every set of the 8-set, 2-way
#: caches below (193 of 200 probed draws do), so eviction runs.
ops = st.lists(st.tuples(tags, st.booleans(), st.integers(0, 255)),
               min_size=64, max_size=160)


class TestCacheModelEquivalence:
    @slow
    @given(ops, st.sampled_from(["lru", "drrip"]))
    def test_cache_never_returns_stale_data(self, sequence, policy):
        """Whatever the replacement policy does, a hit must return the
        most recently written data for that tag."""
        cache = SetAssociativeCache("P", size_bytes=8 * 64 * 2, ways=2,
                                    policy=policy, **L1_TIMING)
        latest = {}
        for tag, write, value in sequence:
            data = bytes([value]) * 64
            hit, _ = cache.access(tag, write=write,
                                  data=data if write else None)
            if not hit:
                cache.fill(tag, data=data if write else latest.get(tag),
                           dirty=write)
            if write:
                latest[tag] = data
            line = cache.lookup(tag)
            if line is not None and line.data is not None and tag in latest:
                assert line.data == latest[tag]

    @slow
    @given(ops)
    def test_occupancy_never_exceeds_capacity(self, sequence):
        cache = SetAssociativeCache("P", size_bytes=4 * 64 * 2, ways=2,
                                    **L1_TIMING)
        for tag, write, value in sequence:
            hit, _ = cache.access(tag, write=write)
            if not hit:
                cache.fill(tag)
            assert len(cache) <= 8


#: A quarter of the ops fill and invalidates empty ways again, so these
#: lists are longer still to fill every set as often (186 of 200 draws).
cache_ops = st.lists(
    st.tuples(st.sampled_from(["fill", "access", "invalidate", "retag"]),
              st.integers(0, 63), st.integers(0, 63), st.booleans(),
              st.integers(0, 255)),
    min_size=256, max_size=400)


class TestResidentMap:
    @slow
    @given(cache_ops, st.sampled_from(["lru", "drrip"]))
    def test_map_matches_slots_and_fill_reports_dirty_victims(
            self, sequence, policy):
        """The resident map holds the very line object in each slot, each
        set's list holds that set's resident lines once each, and a line
        leaving through fill() or a cross-set retag() is returned iff it
        was dirty."""
        cache = SetAssociativeCache("R", size_bytes=8 * 64 * 2, ways=2,
                                    policy=policy, **L1_TIMING)
        for op, tag, other, flag, value in sequence:
            data = bytes([value]) * 64
            if op in ("fill", "retag"):
                before = {t: (line.dirty, line.data)
                          for t, line in cache._where.items()}
                evictions = cache.stats.evictions
                if op == "fill":
                    evicted = cache.fill(tag, data=data if flag else None,
                                         dirty=flag)
                else:
                    moved, evicted = cache.retag(tag, other)
                    if moved:          # renamed, not gone
                        del before[tag]
                gone = set(before) - set(cache._where)
                assert len(gone) == cache.stats.evictions - evictions <= 1
                if gone and before[next(iter(gone))][0]:
                    victim = next(iter(gone))
                    assert evicted is not None
                    assert (evicted.tag, evicted.dirty, evicted.data) == (
                        victim, True, before[victim][1])
                else:
                    assert evicted is None
            elif op == "access":
                cache.access(tag, write=flag, data=data if flag else None)
            else:
                cache.invalidate(tag)
            for resident, line in cache._where.items():
                assert line.tag == resident
                assert cache._lines[line.set_index][line.way] is line
                assert line.set_index == resident % cache.num_sets
            for bucket, order in zip(cache._lines, cache._sets):
                assert sorted(map(id, order)) == sorted(
                    id(line) for line in bucket if line is not None)


class TestHierarchyEquivalence:
    @slow
    @given(ops)
    def test_hierarchy_equals_flat_memory(self, sequence):
        """Through three levels, spills and prefetches, the hierarchy is
        observationally a flat byte store."""
        memory = MainMemory()

        def fetch(tag):
            return memory.read_line(tag // 64, tag % 64)

        def writeback(tag, data):
            if data is not None:
                memory.write_line(tag // 64, tag % 64, data)
            return 0

        hierarchy = MemoryHierarchy(
            read_miss=lambda tag, now, prefetch: (0, 0, fetch(tag)),
            handle_writeback=writeback,
            config=replace(DEFAULT_CONFIG,
                           l1_bytes=4 * 64 * 2, l1_ways=2,
                           l2_bytes=8 * 64 * 2, l2_ways=2,
                           l3_bytes=16 * 64 * 2, l3_ways=2))
        reference = {}
        for tag, write, value in sequence:
            if write:
                data = bytes([value]) * 64
                hierarchy.access(tag, write=True, data=data)
                reference[tag] = data
            else:
                hierarchy.access(tag, write=False)
                observed = hierarchy.lookup_data(tag)
                expected = reference.get(tag, bytes(64))
                assert observed == expected
        hierarchy.flush_dirty()
        for tag, expected in reference.items():
            assert memory.read_line(tag // 64, tag % 64) == expected


class TestDRAMProperties:
    @slow
    @given(st.lists(st.integers(0, 1 << 20), min_size=1, max_size=60))
    def test_latency_always_positive_and_bounded(self, addresses):
        dram = DRAM()
        now = 0
        for address in addresses:
            latency = dram.read(address * 64, now)
            assert latency > 0
            # Bounded by worst-case conflict + full queue of prior bursts.
            assert latency < 10_000 + len(addresses) * 200
            now += 10

    @slow
    @given(st.lists(st.integers(0, 1 << 16), min_size=2, max_size=40))
    def test_row_hits_plus_misses_equals_accesses(self, addresses):
        dram = DRAM()
        for i, address in enumerate(addresses):
            dram.read(address * 64, i * 1000)
        assert (dram.stats.row_hits + dram.stats.row_misses
                == len(addresses))


def reference_lru_victim(stamps):
    """The LRU victim scan as it was written before ``stamps.index(min(
    stamps))``: oldest stamp, first of equals."""
    best_way = 0
    best = stamps[0]
    for way in range(1, len(stamps)):
        if stamps[way] < best:
            best = stamps[way]
            best_way = way
    return best_way


def reference_drrip_victim(rrpvs, max_rrpv):
    """The DRRIP victim loop as it was written before the single aging
    step: age the whole set by one until some way reaches *max_rrpv*,
    then evict the first such way.  Ages *rrpvs* in place."""
    while True:
        for way in range(len(rrpvs)):
            if rrpvs[way] >= max_rrpv:
                return way
        for way in range(len(rrpvs)):
            rrpvs[way] += 1


class TestVictimSelection:
    """The replacement policies' victim choices match the reference
    loops they replaced, way for way and (DRRIP) RRPV for RRPV."""

    @slow
    @given(st.lists(st.integers(0, 15), max_size=40),
           st.sampled_from([2, 4, 8, 16]))
    def test_lru_victim_matches_reference(self, hits, ways):
        """A full set evicts the way whose last touch is the oldest: the
        reference scan over stamps recorded at each fill and hit."""
        cache = SetAssociativeCache("V", size_bytes=ways * 64, ways=ways,
                                    **L1_TIMING)
        stamps = []
        for tag in range(ways):        # way w holds tag w
            cache.fill(tag)
            stamps.append(len(stamps) + 1)
        for clock, way in enumerate(hits, ways + 1):
            way %= ways
            cache.access(cache._lines[0][way].tag)
            stamps[way] = clock
        cache.fill(ways)
        assert cache._lines[0][reference_lru_victim(stamps)].tag == ways

    @slow
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=16))
    def test_drrip_victim_matches_reference(self, rrpvs):
        from repro.mem.replacement import DRRIPPolicy
        policy = DRRIPPolicy(num_sets=1, ways=len(rrpvs))
        row = policy._rrpv[0]
        row[:] = rrpvs
        expected = list(rrpvs)
        way = reference_drrip_victim(expected, DRRIPPolicy.MAX_RRPV)
        assert policy.victim_full(0) == way
        assert policy._rrpv[0] is row
        assert row == expected

    @settings(max_examples=100, deadline=None, phases=UNSHRUNK,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(st.lists(st.tuples(
               st.sampled_from(["access", "fill", "invalidate", "retag"]),
               st.integers(0, 1 << 16), st.integers(0, 1 << 16),
               st.booleans()),
               min_size=100, max_size=300),
           st.sampled_from([2, 4, 8, 16]), st.sampled_from([1, 2]))
    def test_lru_fill_evicts_reference_victim(self, sequence, ways,
                                              num_sets):
        """Over mixes of access, fill, invalidate and retag, the cache's
        recency lists evict the victims a stamp model picks, and leave
        the same lines, dirty bits and dirty_lines() order."""
        cache = SetAssociativeCache(
            "V", size_bytes=num_sets * ways * 64, ways=ways, **L1_TIMING)
        reference = ReferenceLRU(num_sets, ways)
        span = num_sets * ways * 3 // 2  # tags: half again the capacity
        for op, tag, other, flag in sequence:
            tag, other = tag % span, other % span
            if op == "access":
                cache.access(tag, write=flag)
                reference.access(tag, flag)
            elif op == "fill":
                before = set(cache.resident_tags())
                evicted = cache.fill(tag, dirty=flag)
                victim = reference.fill(tag, flag)
                gone = before - set(cache.resident_tags())
                assert gone == ({victim[0]} if victim else set())
                assert (evicted is not None) == bool(victim and victim[1])
                if evicted is not None:
                    assert (evicted.tag, evicted.dirty) == (victim[0], True)
            elif op == "invalidate":
                cache.invalidate(tag)
                reference.invalidate(tag)
            else:
                if flag:               # a retag within the set
                    other += tag % num_sets - other % num_sets
                moved, evicted = cache.retag(tag, other)
                assert (moved, evicted and evicted.tag) == reference.retag(
                    tag, other)
            assert sorted(cache.resident_tags()) == reference.tags()
            assert ([line.tag for line in cache.dirty_lines()]
                    == reference.dirty_tags())


class ReferenceLRU:
    """The stamp LRU the recency lists replaced, on plain slots: every
    fill and hit stamps its way with a global clock, and a fill takes
    the first free way, else the oldest stamp, first of equals."""

    def __init__(self, num_sets, ways):
        self.num_sets = num_sets
        self.slots = [[None] * ways for _ in range(num_sets)]
        self.stamps = [[0] * ways for _ in range(num_sets)]
        self.clock = 0

    def _find(self, tag):
        """``(set, way)`` of *tag*; the way is None when it is absent."""
        set_index = tag % self.num_sets
        for way, slot in enumerate(self.slots[set_index]):
            if slot is not None and slot[0] == tag:
                return set_index, way
        return set_index, None

    def _touch(self, set_index, way):
        self.clock += 1
        self.stamps[set_index][way] = self.clock

    def access(self, tag, write):
        set_index, way = self._find(tag)
        if way is not None:
            self._touch(set_index, way)
            if write:
                self.slots[set_index][way][1] = True

    def fill(self, tag, dirty):
        """Install *tag*; returns the ``[tag, dirty]`` that fell out."""
        set_index, way = self._find(tag)
        if way is not None:            # a refill merges, touching nothing
            if dirty:
                self.slots[set_index][way][1] = True
            return None
        bucket = self.slots[set_index]
        if None in bucket:
            way, victim = bucket.index(None), None
        else:
            way = reference_lru_victim(self.stamps[set_index])
            victim = bucket[way]
        bucket[way] = [tag, dirty]
        self._touch(set_index, way)
        return victim

    def invalidate(self, tag):
        set_index, way = self._find(tag)
        if way is not None:
            self.slots[set_index][way] = None

    def retag(self, old_tag, new_tag):
        """``(moved, tag of a cross-set move's dirty victim or None)``."""
        set_index, way = self._find(old_tag)
        if way is None or self._find(new_tag)[1] is not None:
            return False, None
        slot = self.slots[set_index][way]
        if new_tag % self.num_sets == set_index:
            slot[0] = new_tag          # in place: no touch
            return True, None
        self.slots[set_index][way] = None
        victim = self.fill(new_tag, slot[1])
        return True, victim[0] if victim and victim[1] else None

    def tags(self):
        return sorted(slot[0] for bucket in self.slots for slot in bucket
                      if slot is not None)

    def dirty_tags(self):
        return [slot[0] for bucket in self.slots for slot in bucket
                if slot is not None and slot[1]]
