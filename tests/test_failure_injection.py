"""Failure injection and degraded-configuration tests.

The framework must fail loudly and cleanly when resources run out, and
remain *correct* (if slower) when its accelerating structures shrink to
nothing.
"""

import pytest

from repro.config import SystemConfig
from repro.core.address import LINE_SIZE, PAGE_SIZE
from repro.core.framework import OverlaySystem
from repro.core.oms import OutOfOverlayMemory, OverlayMemoryStore
from repro.osmodel.cow import CopyOnWritePolicy
from repro.osmodel.kernel import Kernel
from repro.osmodel.physalloc import OutOfMemory
from repro.techniques.overlay_on_write import OverlayOnWritePolicy

BASE = 0x100 * PAGE_SIZE


class TestResourceExhaustion:
    def test_cow_break_out_of_frames(self):
        """Frame pool too small for the copy: the fault must surface as
        OutOfMemory, not corruption."""
        kernel = Kernel(total_frames=20, oms_initial_pages=1)
        process = kernel.create_process()
        kernel.mmap(process, 0x100, 18, fill=b"om")  # 18 + 1 OMS = 19
        kernel.install_cow_policy(CopyOnWritePolicy(kernel))
        kernel.fork(process)
        with pytest.raises(OutOfMemory):
            for page in range(18):
                kernel.system.write(process.asid, BASE + page * PAGE_SIZE,
                                    b"x")

    def test_oms_out_of_pages_on_writeback(self):
        """The OS refuses to grant OMS pages: the dirty overlay
        writeback raises OutOfOverlayMemory."""
        system = OverlaySystem(oms_request_pages=lambda count: [],
                               oms_initial_pages=0)
        system.map_page(1, 0x10, 0x42, cow=True, writable=False)
        system.write(1, 0x10 * PAGE_SIZE, b"spill")
        with pytest.raises(OutOfOverlayMemory):
            system.hierarchy.flush_dirty()

    def test_oms_recovers_after_refill(self):
        """Once pages are granted again, the same writeback succeeds."""
        pool = []
        oms = OverlayMemoryStore(request_pages=lambda count: pool[:count],
                                 initial_pages=0)
        with pytest.raises(OutOfOverlayMemory):
            oms.allocate_segment(1)
        pool.extend([0x1000, 0x2000])
        segment = oms.allocate_segment(1)
        assert segment.size == 256

    def test_mmap_out_of_frames(self):
        kernel = Kernel(total_frames=18, oms_initial_pages=1)
        process = kernel.create_process()
        with pytest.raises(OutOfMemory):
            kernel.mmap(process, 0x100, 30)


class TestDegradedConfigurations:
    def test_zero_omt_cache_is_correct(self):
        """No OMT cache: every overlay access walks, data identical."""
        views = {}
        for entries in (0, 64):
            system = OverlaySystem(
                config=SystemConfig(omt_cache_entries=entries))
            system.map_page(1, 0x10, 0x42, cow=True, writable=False)
            for line in range(16):
                system.write(1, 0x10 * PAGE_SIZE + line * LINE_SIZE,
                             bytes([line]) * 8)
            system.hierarchy.flush_dirty()
            views[entries] = system.page_bytes(1, 0x10)
        assert views[0] == views[64]

    def test_zero_omt_cache_is_slower(self):
        latencies = {}
        for entries in (0, 64):
            system = OverlaySystem(
                config=SystemConfig(omt_cache_entries=entries))
            system.map_page(1, 0x10, 0x42, cow=True, writable=False)
            system.write(1, 0x10 * PAGE_SIZE, b"warm")
            system.hierarchy.flush_dirty()
            system.hierarchy.invalidate(
                next(iter(system.hierarchy.l1.resident_tags()), 0),
                writeback=False)
            # A cold overlay read resolves through the OMT.
            for tag in list(system.hierarchy.l1.resident_tags()):
                system.hierarchy.invalidate(tag, writeback=True)
            for tag in list(system.hierarchy.l2.resident_tags()):
                system.hierarchy.invalidate(tag, writeback=True)
            for tag in list(system.hierarchy.l3.resident_tags()):
                system.hierarchy.invalidate(tag, writeback=True)
            _, latency = system.read(1, 0x10 * PAGE_SIZE, 4)
            latencies[entries] = latency
        assert latencies[0] >= latencies[64]

    def test_tiny_tlb_still_correct(self):
        from repro.core.tlb import TLB
        system = OverlaySystem()
        config = system.config
        system.tlbs[0] = TLB(l1_entries=4, l1_ways=4, l2_entries=8,
                             l2_ways=8, l1_latency=config.l1_tlb_latency,
                             l2_latency=config.l2_tlb_latency,
                             miss_latency=config.tlb_miss_latency)
        system.coherence.tlbs[0] = system.tlbs[0]
        system.mmus[0].tlb = system.tlbs[0]
        for vpn in range(32):
            system.map_page(1, vpn, 0x100 + vpn)
        for vpn in range(32):
            system.write(1, vpn * PAGE_SIZE, bytes([vpn]) * 8)
        for vpn in range(32):
            data, _ = system.read(1, vpn * PAGE_SIZE, 8)
            assert data == bytes([vpn]) * 8

    def test_overlays_globally_disabled(self):
        """overlays_enabled=False machines behave like classic VM."""
        kernel = Kernel()
        kernel.system.overlays_enabled = False
        process = kernel.create_process()
        kernel.mmap(process, 0x100, 2, fill=b"od")
        kernel.install_cow_policy(CopyOnWritePolicy(kernel))
        kernel.fork(process)
        kernel.system.write(process.asid, BASE, b"classic")
        assert kernel.system.read(process.asid, BASE, 7)[0] == b"classic"
        assert kernel.system.stats.overlaying_writes == 0


class TestCoalescing:
    def test_buddies_merge(self):
        oms = OverlayMemoryStore(initial_pages=1)
        segments = [oms.allocate_segment(1) for _ in range(16)]
        for segment in segments:
            oms.free_segment(segment)
        free_256_before = len(oms.free_list_snapshot()[256])
        merged = oms.coalesce()
        assert merged > 0
        assert len(oms.free_list_snapshot()[256]) < free_256_before
        assert oms.stats.segment_coalesces == merged

    def test_coalesce_enables_large_allocation(self):
        oms = OverlayMemoryStore(initial_pages=1)
        small = [oms.allocate_segment(1) for _ in range(16)]  # whole page
        for segment in small:
            oms.free_segment(segment)
        while oms.coalesce():
            pass
        big = oms.allocate_segment(64)  # needs a full 4KB segment
        assert big.size == 4096
        assert oms.stats.os_page_requests == 0  # no new OS pages needed

    def test_coalesce_preserves_capacity(self):
        oms = OverlayMemoryStore(initial_pages=2)
        segs = [oms.allocate_segment(1) for _ in range(10)]
        for segment in segs[::2]:
            oms.free_segment(segment)
        free_bytes_before = sum(size * len(bases) for size, bases
                                in oms.free_list_snapshot().items())
        oms.coalesce()
        free_bytes_after = sum(size * len(bases) for size, bases
                               in oms.free_list_snapshot().items())
        assert free_bytes_after == free_bytes_before

    def test_non_buddy_neighbours_do_not_merge(self):
        oms = OverlayMemoryStore(initial_pages=1)
        segs = [oms.allocate_segment(1) for _ in range(4)]
        # Free segments 1 and 2: adjacent but (base%512!=0) misaligned
        # pair cannot merge into a valid 512B buddy.
        bases = sorted(segment.base for segment in segs)
        by_base = {segment.base: segment for segment in segs}
        oms.free_segment(by_base[bases[1]])
        oms.free_segment(by_base[bases[2]])
        assert oms.coalesce() == 0


class TestPagePerOverlayMode:
    """Section 4.4's simpler OMS management alternative."""

    def test_every_overlay_gets_a_full_page(self):
        oms = OverlayMemoryStore(page_per_overlay=True)
        assert oms.allocate_segment(1).size == PAGE_SIZE

    def test_no_migrations_ever(self):
        oms = OverlayMemoryStore(page_per_overlay=True)
        seg = oms.allocate_segment(1)
        for line in range(64):
            seg = oms.write_line(seg, line, bytes([line]) * 64)
        assert oms.stats.segment_migrations == 0

    def test_forgoes_capacity_but_keeps_semantics(self):
        """Same data view as the segment-ladder mode, more memory."""
        views = {}
        allocated = {}
        for mode in (False, True):
            kernel = Kernel(oms_page_per_overlay=mode)
            process = kernel.create_process()
            kernel.mmap(process, 0x100, 4, fill=b"pp")
            kernel.install_cow_policy(OverlayOnWritePolicy(kernel))
            kernel.fork(process)
            for page in range(4):
                kernel.system.write(process.asid,
                                    BASE + page * PAGE_SIZE, b"w")
            kernel.system.hierarchy.flush_dirty()
            views[mode] = [kernel.system.page_bytes(process.asid,
                                                    0x100 + i)
                           for i in range(4)]
            allocated[mode] = kernel.system.overlay_memory_allocated
        assert views[False] == views[True]
        # One line per page: the ladder uses 256B segments, this mode 4KB.
        assert allocated[True] == 16 * allocated[False]
