"""Unit tests for the MMU and the overlay-aware memory controller."""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.core.address import (LINE_SIZE, ZERO_LINE, line_tag_of,
                                overlay_page_number, tag_is_overlay)
from repro.core.framework import OverlaySystem
from repro.core.mmu import MMU, MemoryController
from repro.core.oms import OverlayMemoryStore
from repro.core.page_table import PageFault, PageTable
from repro.core.tlb import TLB
from repro.mem.dram import DRAM
from repro.mem.mainmemory import MainMemory


def make_controller():
    return MemoryController(MainMemory(), DRAM(), OverlayMemoryStore())


class TestControllerResolve:
    def test_physical_tag_resolves_directly(self):
        controller = make_controller()
        address, latency = controller.resolve_miss(line_tag_of(5, 3))
        assert address == (5 * 64 + 3) * LINE_SIZE
        assert latency == 0

    def test_overlay_tag_without_entry_resolves_to_none(self):
        controller = make_controller()
        opn = overlay_page_number(1, 0x10)
        address, latency = controller.resolve_miss(line_tag_of(opn, 0))
        assert address is None
        assert latency > 0  # the OMT walk is charged

    def test_overlay_tag_with_line_resolves_into_segment(self):
        controller = make_controller()
        opn = overlay_page_number(1, 0x10)
        entry = controller.omt.ensure(opn)
        entry.segment = controller.oms.allocate_segment(1)
        entry.segment = controller.oms.write_line(entry.segment, 3, b"z" * 64)
        address, _ = controller.resolve_miss(line_tag_of(opn, 3))
        slot = entry.segment.slot_pointers[3]
        assert address == entry.segment.base + (slot + 1) * LINE_SIZE

    def test_omt_cache_hit_is_free(self):
        controller = make_controller()
        opn = overlay_page_number(1, 0x10)
        controller.omt.ensure(opn)
        controller.resolve_miss(line_tag_of(opn, 0))
        _, latency = controller.resolve_miss(line_tag_of(opn, 1))
        assert latency == 0


class TestControllerData:
    def test_fetch_physical_line(self):
        controller = make_controller()
        controller.main_memory.write_line(5, 3, b"m" * 64)
        assert controller.fetch_data(line_tag_of(5, 3)) == b"m" * 64

    def test_fetch_unbacked_overlay_line_is_zero(self):
        controller = make_controller()
        opn = overlay_page_number(1, 0x10)
        assert controller.fetch_data(line_tag_of(opn, 0)) == ZERO_LINE
        assert controller.stats.zero_line_fills == 1

    def test_fetch_overlay_line_from_segment(self):
        controller = make_controller()
        opn = overlay_page_number(1, 0x10)
        entry = controller.omt.ensure(opn)
        entry.segment = controller.oms.allocate_segment(1)
        entry.segment = controller.oms.write_line(entry.segment, 2, b"q" * 64)
        assert controller.fetch_data(line_tag_of(opn, 2)) == b"q" * 64


class TestControllerReadMiss:
    """``read_miss`` serves a full miss in one call: resolve, DRAM read,
    then the line's bytes."""

    @staticmethod
    def overlay_with_line(controller, line, data):
        """An overlay page whose *line* is stored in the OMS, with a cold
        OMT cache; returns the line's tag."""
        opn = overlay_page_number(1, 0x10)
        entry = controller.omt.ensure(opn)
        entry.segment = controller.oms.allocate_segment(1)
        entry.segment = controller.oms.write_line(entry.segment, line, data)
        controller.omt_cache.invalidate(opn)
        return line_tag_of(opn, line)

    @staticmethod
    def spy_dram_reads(controller):
        issued = []
        read = controller.dram.read

        def spy(address, now=0):
            issued.append((address, now))
            return read(address, now)

        controller.dram.read = spy
        return issued

    def test_physical_miss_reads_dram_and_returns_the_line(self):
        controller = make_controller()
        controller.main_memory.write_line(5, 3, b"m" * 64)
        issued = self.spy_dram_reads(controller)
        lookup, cycles, data = controller.read_miss(line_tag_of(5, 3), 700)
        assert (lookup, data) == (0, b"m" * 64)
        assert cycles > 0
        assert issued == [((5 * 64 + 3) * LINE_SIZE, 700)]

    def test_physical_miss_returns_the_frames_own_line(self):
        controller = make_controller()
        stored = bytes(range(64))
        controller.main_memory.write_line(5, 3, stored)
        assert controller.read_miss(line_tag_of(5, 3), 0)[2] is stored
        assert controller.read_miss(line_tag_of(5, 4), 0)[2] is ZERO_LINE
        assert controller.read_miss(line_tag_of(6, 0), 0)[2] is ZERO_LINE

    def test_demand_overlay_miss_reads_dram_after_the_omt_lookup(self):
        controller = make_controller()
        tag = self.overlay_with_line(controller, 2, b"q" * 64)
        issued = self.spy_dram_reads(controller)
        lookup, _, data = controller.read_miss(tag, 500, prefetch=False)
        assert lookup > 0  # the OMT cache missed: a walk was charged
        assert data == b"q" * 64
        assert [now for _, now in issued] == [500 + lookup]

    def test_overlay_prefetch_reads_dram_at_now(self):
        controller = make_controller()
        tag = self.overlay_with_line(controller, 2, b"q" * 64)
        issued = self.spy_dram_reads(controller)
        lookup, _, data = controller.read_miss(tag, 500, prefetch=True)
        assert lookup > 0
        assert data == b"q" * 64
        assert [now for _, now in issued] == [500]

    def test_unbacked_overlay_line_reads_no_dram(self):
        controller = make_controller()
        opn = overlay_page_number(1, 0x10)
        issued = self.spy_dram_reads(controller)
        _, cycles, data = controller.read_miss(line_tag_of(opn, 0), 500)
        assert (cycles, data, issued) == (0, ZERO_LINE, [])
        assert controller.stats.zero_line_fills == 1

    def test_equals_resolve_then_fetch(self):
        """Same address, latency and bytes as the two steps alone."""
        fused, split = make_controller(), make_controller()
        tags = [self.overlay_with_line(c, 4, b"w" * 64) for c in (fused, split)]
        lookup, _, data = fused.read_miss(tags[0], 0)
        address, latency = split.resolve_miss(tags[1])
        assert (lookup, data) == (latency, split.fetch_data(tags[1]))
        assert address is not None
        assert fused.stats == split.stats
        assert fused.omt_cache.stats == split.omt_cache.stats


class TestControllerWriteback:
    def test_physical_writeback_lands_in_main_memory(self):
        controller = make_controller()
        controller.handle_writeback(line_tag_of(7, 1), b"d" * 64)
        assert controller.main_memory.read_line(7, 1) == b"d" * 64
        assert controller.stats.physical_writebacks == 1

    def test_overlay_writeback_allocates_lazily(self):
        """Section 4.3.3: memory is allocated on dirty-line eviction."""
        controller = make_controller()
        opn = overlay_page_number(1, 0x10)
        assert controller.oms.allocated_bytes == 0
        controller.handle_writeback(line_tag_of(opn, 4), b"w" * 64)
        entry = controller.omt.lookup(opn)
        assert entry.segment is not None
        assert entry.segment.read_line(4) == b"w" * 64
        assert controller.oms.allocated_bytes > 0
        assert controller.stats.overlay_writebacks == 1

    def test_overlay_writeback_grows_segment(self):
        controller = make_controller()
        opn = overlay_page_number(1, 0x10)
        for line in range(10):
            controller.handle_writeback(line_tag_of(opn, line),
                                        bytes([line]) * 64)
        entry = controller.omt.lookup(opn)
        assert entry.segment.size >= 1024
        for line in range(10):
            assert entry.segment.read_line(line) == bytes([line]) * 64

    def test_writeback_none_data_stores_zero(self):
        controller = make_controller()
        opn = overlay_page_number(1, 0x10)
        controller.handle_writeback(line_tag_of(opn, 0), None)
        assert controller.omt.lookup(opn).segment.read_line(0) == ZERO_LINE

    def test_drop_overlay_frees_everything(self):
        controller = make_controller()
        opn = overlay_page_number(1, 0x10)
        controller.handle_writeback(line_tag_of(opn, 0), b"x" * 64)
        controller.drop_overlay(opn)
        assert controller.omt.lookup(opn) is None
        assert controller.oms.allocated_bytes == 0


class TestMMU:
    def make_mmu(self):
        controller = make_controller()
        tables = {1: PageTable(asid=1)}
        tables[1].map(0x10, 0x99)
        tlb = TLB(l1_latency=DEFAULT_CONFIG.l1_tlb_latency,
                  l2_latency=DEFAULT_CONFIG.l2_tlb_latency,
                  miss_latency=DEFAULT_CONFIG.tlb_miss_latency)
        mmu = MMU(tlb, tables, controller)
        return mmu, tables[1], controller

    def test_translate_hit_after_miss(self):
        mmu, _, _ = self.make_mmu()
        _entry, latency = mmu.translate(1, 0x10)
        assert mmu.tlb.stats.misses == 1
        assert latency >= mmu.tlb.miss_latency
        _entry, latency = mmu.translate(1, 0x10)
        assert (mmu.tlb.stats.misses, mmu.tlb.stats.l1_hits) == (1, 1)
        assert latency == mmu.tlb.l1_latency

    def test_miss_fetches_obitvector_from_omt(self):
        mmu, _, controller = self.make_mmu()
        opn = overlay_page_number(1, 0x10)
        entry = controller.omt.ensure(opn)
        entry.obitvector.set(9)
        entry, _latency = mmu.translate(1, 0x10)
        assert entry.obitvector.is_set(9)

    def test_overlay_disabled_mapping_skips_omt(self):
        mmu, table, controller = self.make_mmu()
        table.map(0x20, 0x98, overlays_enabled=False)
        walks_before = controller.omt_cache.stats.walks
        mmu.translate(1, 0x20)
        assert controller.omt_cache.stats.walks == walks_before

    def test_translate_unknown_asid_raises(self):
        mmu, _, _ = self.make_mmu()
        with pytest.raises(KeyError):
            mmu.translate(99, 0x10)

    def test_translate_unmapped_faults(self):
        mmu, _, _ = self.make_mmu()
        with pytest.raises(PageFault):
            mmu.translate(1, 0x77)
