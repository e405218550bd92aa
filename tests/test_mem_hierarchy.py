"""Unit tests for the three-level hierarchy and its overlay hooks."""

from dataclasses import replace

from repro.config import DEFAULT_CONFIG
from repro.core.framework import OverlaySystem
from repro.engine import tracing
from repro.mem.dram import DRAM
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.mainmemory import MainMemory


class RecordingBackend:
    """A hand-rolled flat backend recording miss/writeback traffic."""

    def __init__(self):
        self.memory = MainMemory()
        self.dram = DRAM(DEFAULT_CONFIG)
        self.writebacks = []
        self.fetches = []

    def read_miss(self, tag, now, prefetch):
        self.fetches.append(tag)
        return (0, self.dram.read(tag * 64, now),
                self.memory.read_line(tag // 64, tag % 64))

    def writeback(self, tag, data):
        self.writebacks.append((tag, data))
        if data is not None:
            self.memory.write_line(tag // 64, tag % 64, data)
        return 0


def make():
    backend = RecordingBackend()
    hierarchy = MemoryHierarchy(dram=backend.dram,
                                read_miss=backend.read_miss,
                                handle_writeback=backend.writeback)
    return hierarchy, backend


def hits(hierarchy):
    """Hit count of each level, L1 first."""
    return [cache.stats.hits for cache in hierarchy.caches()]


def misses(hierarchy):
    """Miss count of each level, L1 first."""
    return [cache.stats.misses for cache in hierarchy.caches()]


class TestDemandPath:
    def test_miss_fills_all_levels(self):
        hierarchy, _ = make()
        hierarchy.access(100)
        assert hits(hierarchy) == [0, 0, 0]
        assert misses(hierarchy) == [1, 1, 1]
        assert 100 in hierarchy.l1
        assert 100 in hierarchy.l2
        assert 100 in hierarchy.l3

    def test_l1_hit_is_fast(self):
        hierarchy, _ = make()
        hierarchy.access(100)
        latency = hierarchy.access(100)
        assert hits(hierarchy) == [1, 0, 0]
        assert latency <= hierarchy.l1.hit_latency

    def test_latency_ordering(self):
        hierarchy, _ = make()
        mem = hierarchy.access(100)
        l1 = hierarchy.access(100)
        assert mem > l1

    def test_l1_and_l2_hits_refresh_lru(self):
        """The hierarchy's own L1 and L2 hit paths move the line to the
        back of its set's recency order, as ``cache.access`` does."""
        hierarchy = MemoryHierarchy(config=replace(
            DEFAULT_CONFIG, l1_bytes=2 * 64, l1_ways=2,
            l2_bytes=4 * 64, l2_ways=4))
        for tag in (0, 1, 0, 2):     # the L1 hit on 0 saves it, not 1
            hierarchy.access(tag)
        assert 0 in hierarchy.l1 and 1 not in hierarchy.l1
        for tag in (1, 0, 3, 4):     # L2 hits on 1, then 0: 2 is oldest
            hierarchy.access(tag)
        assert 2 not in hierarchy.l2
        assert {0, 1, 3, 4} <= set(hierarchy.l2.resident_tags())

    def test_l2_hit_refills_l1(self):
        hierarchy, _ = make()
        hierarchy.access(100)
        hierarchy.l1.invalidate(100)
        hierarchy.access(100)
        assert hits(hierarchy) == [0, 1, 0]
        assert 100 in hierarchy.l1

    def test_l3_hit_refills_upper_levels(self):
        hierarchy, _ = make()
        hierarchy.access(100)
        hierarchy.l1.invalidate(100)
        hierarchy.l2.invalidate(100)
        hierarchy.access(100)
        assert hits(hierarchy) == [0, 0, 1]
        assert 100 in hierarchy.l1 and 100 in hierarchy.l2

    def test_miss_carries_backing_data(self):
        hierarchy, backend = make()
        backend.memory.write_line(1, 4, b"k" * 64)
        hierarchy.access(100)  # tag 100 = page 1, line 36? (100//64=1,100%64=36)
        hierarchy.access(68)   # page 1, line 4
        assert hierarchy.lookup_data(68) == b"k" * 64

    def test_write_miss_allocates_and_dirties(self):
        hierarchy, _ = make()
        hierarchy.access(100, write=True, data=b"w" * 64)
        line = hierarchy.l1.lookup(100)
        assert line.dirty and line.data == b"w" * 64


class TestWritebackChain:
    def test_dirty_data_survives_eviction_chain(self):
        """A dirty line evicted from L1 spills to L2, L3, then memory."""
        hierarchy, backend = make()
        hierarchy.access(0, write=True, data=b"D" * 64)
        # Force the line down by thrashing L1's set 0 (256 sets in L1).
        for i in range(1, 6):
            hierarchy.access(i * 256, write=False)
        assert hierarchy.lookup_data(0) == b"D" * 64  # still in L2/L3

    def test_l3_hit_keeps_its_data_when_the_l2_spill_evicts_it(self):
        """Reading line 83 hits the L3; filling it into the L2 spills
        line 3's dirty copy into the L3, whose replacement evicts line
        83 there.  The L1 still gets line 83's own data."""
        backend = RecordingBackend()
        hierarchy = MemoryHierarchy(
            read_miss=backend.read_miss, handle_writeback=backend.writeback,
            config=replace(DEFAULT_CONFIG,
                           l1_bytes=4 * 64 * 2, l1_ways=2,
                           l2_bytes=8 * 64 * 2, l2_ways=2,
                           l3_bytes=16 * 64 * 2, l3_ways=2))
        for tag in (3, 78, 90, 91, 111, 79):
            hierarchy.access(tag)
        hierarchy.access(3, write=True, data=b"\x01" * 64)
        for tag in (7, 80, 115):
            hierarchy.access(tag)
        hits_before = hierarchy.l3.stats.hits
        hierarchy.access(83)
        assert hierarchy.l3.stats.hits == hits_before + 1
        assert 83 not in hierarchy.l3 and 3 in hierarchy.l3
        assert hierarchy.l1.lookup(83).data == bytes(64)
        assert hierarchy.lookup_data(3) == b"\x01" * 64

    def test_flush_dirty_reaches_backend(self):
        hierarchy, backend = make()
        hierarchy.access(100, write=True, data=b"f" * 64)
        flushed = hierarchy.flush_dirty()
        assert flushed >= 1
        assert (100, b"f" * 64) in backend.writebacks
        assert backend.memory.read_line(1, 36) == b"f" * 64

    def test_invalidate_with_writeback(self):
        hierarchy, backend = make()
        hierarchy.access(100, write=True, data=b"i" * 64)
        hierarchy.invalidate(100, writeback=True)
        assert hierarchy.lookup_data(100) is None
        assert backend.writebacks

    def test_invalidate_without_writeback_discards(self):
        hierarchy, backend = make()
        hierarchy.access(100, write=True, data=b"i" * 64)
        hierarchy.invalidate(100, writeback=False)
        assert not backend.writebacks


class TestControllerCalls:
    def test_counts_requests_and_latency_of_each_call(self):
        """A full miss resolves and fetches the line once, a dirty line
        leaving the hierarchy is written back once, and the hierarchy
        counts each call and its latency in its own stats scope."""
        class StubController:
            def read_miss(self, tag, now, prefetch):
                return 7, 0, None

            def handle_writeback(self, tag, data):
                return 11

        stub = StubController()
        hierarchy = MemoryHierarchy(read_miss=stub.read_miss,
                                    handle_writeback=stub.handle_writeback)
        hierarchy.access(100, write=True, data=b"c" * 64)
        hierarchy.invalidate(100)
        assert hierarchy.stats_scope.scalars() == {
            "resolve_miss_requests": 1, "resolve_miss_latency": 7,
            "fetch_data_requests": 1,
            "writeback_requests": 1, "writeback_latency": 11}


class TestFusedMissCall:
    """A full miss and each prefetch make one ``read_miss`` call; the
    hierarchy still counts and traces its resolve and fetch steps."""

    class Recorder:
        def __init__(self):
            self.events = []

        def emit(self, time, category, name, args=None):
            if category == "port":
                self.events.append((name, args))

    def test_full_miss_emits_resolve_then_fetch(self):
        system = OverlaySystem()
        system.map_page(1, 0x10, 0x99)
        recorder = self.Recorder()
        tracing.install(recorder)
        try:
            system.read(1, 0x10 * 4096 + 5 * 64)
        finally:
            tracing.uninstall()
        tag = 0x99 * 64 + 5
        assert recorder.events == [
            ("resolve_miss", {"op": "resolve", "tag": tag, "latency": 0}),
            ("fetch_data", {"op": "fetch", "tag": tag})]

    def test_every_resolve_is_a_fetch_on_a_wired_machine(self):
        system = OverlaySystem()
        system.map_page(1, 0x10, 0x99)
        for offset in range(0, 4096, 64):  # a stream: prefetches run
            system.read(1, 0x10 * 4096 + offset)
        stats = system.hierarchy.stats
        assert system.hierarchy.l3.stats.prefetch_fills > 0
        assert stats.resolve_miss_requests == stats.fetch_data_requests
        assert stats.resolve_miss_requests == (
            system.hierarchy.l3.stats.misses
            + system.hierarchy.l3.stats.prefetch_fills)

    def test_prefetches_issue_at_now_and_demand_after_the_tag_probes(self):
        hierarchy = MemoryHierarchy()
        calls = []
        read_miss = hierarchy.read_miss

        def spy(tag, now, prefetch):
            calls.append((tag, now, prefetch))
            return read_miss(tag, now, prefetch)

        hierarchy.read_miss = spy
        for tag in range(1000, 1003):
            hierarchy.access(tag, now=5000)
        probes = (hierarchy.l1.miss_latency + hierarchy.l2.miss_latency
                  + hierarchy.l3.miss_latency)
        assert [call for call in calls if not call[2]] == [
            (tag, 5000 + probes, False) for tag in range(1000, 1003)]
        prefetched = [call for call in calls if call[2]]
        assert prefetched
        assert all(now == 5000 for _, now, _ in prefetched)

    def test_dram_read_issues_after_all_three_tag_probes(self):
        hierarchy, _ = make()
        issued = []
        read = hierarchy.dram.read

        def spy(address, now=0):
            issued.append(now)
            return read(address, now)

        hierarchy.dram.read = spy
        hierarchy.access(100, now=1000)
        assert issued == [1000 + hierarchy.l1.miss_latency
                          + hierarchy.l2.miss_latency
                          + hierarchy.l3.miss_latency]

    def test_unwired_hierarchy_keeps_its_counters(self):
        """Flat physical memory: a writeback resolves its tag too."""
        hierarchy = MemoryHierarchy()
        hierarchy.access(100, write=True, data=b"x" * 64, now=10)
        hierarchy.invalidate(100)
        assert hierarchy.stats_scope.scalars() == {
            "resolve_miss_requests": 2, "resolve_miss_latency": 0,
            "fetch_data_requests": 1,
            "writeback_requests": 1, "writeback_latency": 10}


class TestRetag:
    def test_retag_moves_line_across_levels(self):
        hierarchy, _ = make()
        hierarchy.access(100, write=True, data=b"r" * 64)
        assert hierarchy.retag(100, 777)
        assert hierarchy.lookup_data(777) == b"r" * 64
        assert hierarchy.lookup_data(100) is None

    def test_retag_missing_line_fails(self):
        hierarchy, _ = make()
        assert not hierarchy.retag(1, 2)

    def test_cross_set_retag_keeps_dirty_victim(self):
        backend = RecordingBackend()
        hierarchy = MemoryHierarchy(
            dram=backend.dram, read_miss=backend.read_miss,
            handle_writeback=backend.writeback,
            config=replace(DEFAULT_CONFIG, l1_bytes=2 * 64,
                           l1_ways=1))  # 2 sets, 1 way
        data = b"v" * 64
        hierarchy.access(1, write=True, data=data)  # dirty only in L1 set 1
        hierarchy.access(0)                          # L1 set 0
        assert hierarchy.l1.lookup(1).dirty
        assert hierarchy.retag(0, 3)  # L1 set 0 -> set 1, evicting tag 1
        assert 1 not in hierarchy.l1
        hierarchy.flush_dirty()
        assert (1, data) in backend.writebacks


class TestPrefetcherIntegration:
    def test_streaming_misses_prefetch_into_l3(self):
        hierarchy, _ = make()
        for tag in range(1000, 1010):
            hierarchy.access(tag)
        assert hierarchy.l3.stats.prefetch_fills > 0

    def test_prefetched_lines_carry_data(self):
        hierarchy, backend = make()
        for line in range(64):
            backend.memory.write_line(20, line, bytes([line]) * 64)
        for line in range(6):
            hierarchy.access(20 * 64 + line)
        # A line beyond the demand stream was prefetched with its data.
        pf_tags = [tag for tag in hierarchy.l3.resident_tags()
                   if 20 * 64 + 5 < tag < 21 * 64]
        assert pf_tags
        for tag in pf_tags:
            line = hierarchy.l3.lookup(tag)
            assert line.data == bytes([tag % 64]) * 64
