"""Hypothesis property tests for the memory-hierarchy layer."""

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from repro.config import DEFAULT_CONFIG
from repro.mem.cache import (BRRIP_LONG_EVERY, DISTANT_RRPV, LONG_RRPV,
                             MAX_RRPV, PSEL_MAX, PSEL_MID,
                             SetAssociativeCache)
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


def cache_state(cache):
    """Each set's recency list as ``(tag, way, dirty, data)``, the stats,
    and (DRRIP) every way's RRPV."""
    return ([[(cache._tags[slot], slot - set_index * cache.ways,
               cache._dirty[slot], cache._data[slot]) for slot in order]
             for set_index, order in enumerate(cache._sets)],
            vars(cache.stats).copy(),
            None if cache._lru else [
                [cache.rrpv(set_index, way)
                 for way in range(cache.ways)]
                for set_index in range(cache.num_sets)])


class TestResidentMap:
    @slow
    @given(cache_ops, st.sampled_from(["lru", "drrip"]))
    def test_map_matches_slots_and_fill_reports_dirty_victims(
            self, sequence, policy):
        """The resident map, the tag list and each set's list agree slot
        for slot: a resident tag's slot holds that tag in its own set,
        each set's list holds that set's occupied slots once each, a
        free slot is empty (no tag, clean, no data), and a line
        leaving through fill() or a cross-set retag() is returned iff it
        was dirty.  The cache is a hierarchy's L2: a fill of a resident
        tag is an L1 victim spilled onto that copy, which leaves what
        fill's refill merge left before the hierarchy took it over: the
        copy dirty, its data replaced when the victim carries some, and
        nothing else changed."""
        hierarchy = MemoryHierarchy(config=replace(
            DEFAULT_CONFIG, l2_bytes=8 * 64 * 2, l2_ways=2,
            l2_policy=policy))
        cache = hierarchy.l2
        for op, tag, other, flag, value in sequence:
            data = bytes([value]) * 64
            if op == "fill" and tag in cache:
                slot = cache._where[tag]
                set_index, way = divmod(slot, cache.ways)
                line = (tag, way, cache._dirty[slot], cache._data[slot])
                expected = cache_state(cache)
                position = expected[0][set_index].index(line)
                expected[0][set_index][position] = (
                    tag, way, True, data if flag else line[3])
                hierarchy._spill(hierarchy.l1, (tag, data if flag else None))
                assert cache._where[tag] == slot
                assert cache_state(cache) == expected
            elif op in ("fill", "retag"):
                before = {t: (cache._dirty[slot], cache._data[slot])
                          for t, slot in cache._where.items()}
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
                    assert evicted == (victim, before[victim][1])
                else:
                    assert evicted is None
            elif op == "access":
                cache.access(tag, write=flag, data=data if flag else None)
            else:
                cache.invalidate(tag)
            for resident, slot in cache._where.items():
                assert cache._tags[slot] == resident
                assert slot // cache.ways == resident % cache.num_sets
            for slot, resident in enumerate(cache._tags):
                if resident is None:
                    assert (cache._dirty[slot], cache._data[slot],
                            cache._prefetched[slot]) == (False, None, False)
                else:
                    assert cache._where[resident] == slot
            for set_index, order in enumerate(cache._sets):
                first = set_index * cache.ways
                assert sorted(order) == [
                    slot for slot in range(first, first + cache.ways)
                    if cache._tags[slot] is not None]


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
            cache.access(cache._tags[way])
            stamps[way] = clock
        cache.fill(ways)
        assert cache._tags[reference_lru_victim(stamps)] == ways

    @slow
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=16))
    def test_drrip_victim_matches_reference(self, rrpvs):
        """A fill of a full set evicts the way the aging loop picks and
        leaves the RRPVs it leaves, without rewriting the stored row."""
        ways = len(rrpvs)
        cache = SetAssociativeCache("V", size_bytes=ways * 64, ways=ways,
                                    policy="drrip", **L1_TIMING)
        for tag in range(ways):        # way w holds tag w
            cache.fill(tag)
        row = cache._rrpv[0]
        row[:] = rrpvs                 # stored values, at offset 0
        expected = list(rrpvs)
        way = reference_drrip_victim(expected, MAX_RRPV)
        expected[way] = LONG_RRPV      # the one set leads for SRRIP
        cache.fill(ways)
        assert cache._tags[way] == ways
        assert [cache.rrpv(0, w) for w in range(ways)] == expected
        # The aging rewrote no way: only the victim's stored value moved.
        assert [value for w, value in enumerate(row) if w != way] == [
            value for w, value in enumerate(rrpvs) if w != way]

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
                if tag in cache:       # fill installs an absent tag only
                    continue
                before = set(cache.resident_tags())
                evicted = cache.fill(tag, dirty=flag)
                victim = reference.fill(tag, flag)
                gone = before - set(cache.resident_tags())
                assert gone == ({victim[0]} if victim else set())
                assert (evicted is not None) == bool(victim and victim[1])
                if evicted is not None:
                    assert evicted[0] == victim[0]
            elif op == "invalidate":
                cache.invalidate(tag)
                reference.invalidate(tag)
            else:
                if flag:               # a retag within the set
                    other += tag % num_sets - other % num_sets
                moved, evicted = cache.retag(tag, other)
                assert (moved, evicted and evicted[0]) == reference.retag(
                    tag, other)
            assert sorted(cache.resident_tags()) == reference.tags()
            assert ([line.tag for line in cache.dirty_lines()]
                    == reference.dirty_tags())

    @settings(max_examples=100, deadline=None, phases=UNSHRUNK,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(st.lists(st.tuples(
               st.sampled_from(["access", "fill", "invalidate", "retag"]),
               st.integers(0, 1 << 16), st.integers(0, 1 << 16),
               st.booleans(), st.booleans()),
               min_size=100, max_size=300),
           st.sampled_from([2, 4, 8, 16]), st.sampled_from([1, 2, 128]),
           st.integers(0, BRRIP_LONG_EVERY - 1))
    def test_drrip_fill_evicts_reference_victim(self, sequence, ways,
                                                num_sets, throttle):
        """Over the same mixes, with fills that prefetch or not, a DRRIP
        cache evicts the victims a per-way RRPV model picks, returns
        the same dirty victims, and leaves the same lines in the same
        ways, every way's RRPV, PSEL and the BRRIP throttle.  One or two
        sets are all leaders (with 64 sets, too, every set leads); the
        128-set cache draws its tags from SRRIP leader set 0, BRRIP
        leader set 1 and follower sets 64 and 65.  The BRRIP throttle
        starts anywhere in its period, so that a mix of a few dozen
        BRRIP fills meets its long insertion too."""
        cache = SetAssociativeCache(
            "V", size_bytes=num_sets * ways * 64, ways=ways,
            policy="drrip", **L1_TIMING)
        reference = ReferenceDRRIP(num_sets, ways)
        cache._brrip_throttle = reference.throttle = throttle
        sets = [0, 1, 64, 65] if num_sets == 128 else range(num_sets)
        per_set = ways * 3 // 2      # tags: half again each set's ways

        def tag_of(value):
            return (sets[value % len(sets)]
                    + num_sets * (value // len(sets) % per_set))

        for op, tag, other, flag, prefetch in sequence:
            tag, other = tag_of(tag), tag_of(other)
            if op == "access":
                hit, _ = cache.access(tag, write=flag)
                assert hit == reference.access(tag, flag)
            elif op == "fill":
                if tag in cache:       # fill installs an absent tag only
                    continue
                evicted = cache.fill(tag, dirty=flag, prefetch=prefetch)
                victim = reference.fill(tag, flag, prefetch)
                assert evicted == ((victim[0], None)
                                   if victim and victim[1] else None)
            elif op == "invalidate":
                cache.invalidate(tag)
                reference.invalidate(tag)
            else:
                if flag:               # a retag within the set
                    other += tag % num_sets - other % num_sets
                moved, evicted = cache.retag(tag, other)
                assert (moved, evicted and evicted[0]) == reference.retag(
                    tag, other)
            for set_index in sets:
                first = set_index * ways
                assert ([None if cache._tags[slot] is None
                         else [cache._tags[slot], cache._dirty[slot]]
                         for slot in range(first, first + ways)]
                        == reference.slots[set_index])
                assert ([cache.rrpv(set_index, way) for way in range(ways)]
                        == reference.rrpvs[set_index])
            assert cache._psel == reference.psel
            assert cache._brrip_throttle == reference.throttle


class ReferenceSlots:
    """Plain per-set slots of ``[tag, dirty]`` with the lookup,
    invalidate and retag the reference policies share; a subclass keeps
    its policy's state and supplies ``access`` and ``fill``."""

    def __init__(self, num_sets, ways):
        self.num_sets = num_sets
        self.slots = [[None] * ways for _ in range(num_sets)]

    def _find(self, tag):
        """``(set, way)`` of *tag*; the way is None when it is absent."""
        set_index = tag % self.num_sets
        for way, slot in enumerate(self.slots[set_index]):
            if slot is not None and slot[0] == tag:
                return set_index, way
        return set_index, None

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


class ReferenceLRU(ReferenceSlots):
    """The stamp LRU the recency lists replaced: every fill and hit
    stamps its way with a global clock, and a fill takes the first free
    way, else the oldest stamp, first of equals."""

    def __init__(self, num_sets, ways):
        super().__init__(num_sets, ways)
        self.stamps = [[0] * ways for _ in range(num_sets)]
        self.clock = 0

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
        """Install *tag*, which is absent; returns the ``[tag, dirty]``
        that fell out."""
        set_index = tag % self.num_sets
        bucket = self.slots[set_index]
        if None in bucket:
            way, victim = bucket.index(None), None
        else:
            way = reference_lru_victim(self.stamps[set_index])
            victim = bucket[way]
        bucket[way] = [tag, dirty]
        self._touch(set_index, way)
        return victim


class ReferenceDRRIP(ReferenceSlots):
    """DRRIP [27] with one plain RRPV per way: a hit sets its way's RRPV
    to 0, and a fill takes the first free way, else ages the set with
    the loop of :func:`reference_drrip_victim`.  Leader sets alternate
    SRRIP, BRRIP every *stride* sets (32 of each, first claim wins);
    a fill in a leader set votes against its policy on a 10-bit PSEL,
    a follower set inserts as SRRIP while PSEL is below its midpoint,
    BRRIP inserts long on every 32nd of its fills, and a prefetch
    inserts distant."""

    def __init__(self, num_sets, ways):
        super().__init__(num_sets, ways)
        self.rrpvs = [[MAX_RRPV] * ways for _ in range(num_sets)]
        self.psel = PSEL_MID
        self.throttle = 0
        stride = max(1, num_sets // 64)
        self.leaders = {}
        for k in range(64):
            self.leaders.setdefault(k * stride % num_sets,
                                    "brrip" if k % 2 else "srrip")

    def access(self, tag, write):
        set_index, way = self._find(tag)
        if way is None:
            return False
        self.rrpvs[set_index][way] = 0
        if write:
            self.slots[set_index][way][1] = True
        return True

    def fill(self, tag, dirty, prefetch=False):
        """Install *tag*, which is absent; returns the ``[tag, dirty]``
        that fell out."""
        set_index = tag % self.num_sets
        bucket = self.slots[set_index]
        if None in bucket:
            way, victim = bucket.index(None), None
        else:
            way = reference_drrip_victim(self.rrpvs[set_index], MAX_RRPV)
            victim = bucket[way]
        bucket[way] = [tag, dirty]
        kind = self.leaders.get(set_index)
        if kind == "srrip":
            self.psel = min(self.psel + 1, PSEL_MAX)
        elif kind == "brrip":
            self.psel = max(self.psel - 1, 0)
        else:
            kind = "srrip" if self.psel < PSEL_MID else "brrip"
        rrpv = LONG_RRPV
        if kind == "brrip":
            self.throttle = (self.throttle + 1) % BRRIP_LONG_EVERY
            if self.throttle:
                rrpv = DISTANT_RRPV
        self.rrpvs[set_index][way] = DISTANT_RRPV if prefetch else rrpv
        return victim
