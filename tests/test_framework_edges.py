"""Edge-case tests for framework paths not covered elsewhere."""

import pytest

from repro.core.address import (LINE_SIZE, PAGE_SIZE, ZERO_LINE, line_tag_of,
                                overlay_page_number)
from repro.core.framework import OverlaySystem
from repro.core.page_table import PageTableError


def vaddr(vpn, line=0, offset=0):
    return vpn * PAGE_SIZE + line * LINE_SIZE + offset


class TestOverlayLineManagement:
    def test_install_overwrites_existing_line(self, system):
        system.map_page(1, 0x10, 0x42)
        system.install_overlay_line(1, 0x10, 3, b"1" * 64)
        system.install_overlay_line(1, 0x10, 3, b"2" * 64)
        assert system.line_bytes(1, 0x10, 3) == b"2" * 64
        assert system.overlay_line_count(1, 0x10) == 1

    def test_install_after_cached_read_invalidates_stale_copy(self, system):
        """A read caches the overlay line; reinstalling must not leave
        the stale copy visible."""
        system.map_page(1, 0x10, 0x42)
        system.install_overlay_line(1, 0x10, 3, b"1" * 64)
        system.read(1, vaddr(0x10, 3), 8)          # caches "1"*64
        system.hierarchy.invalidate(
            line_tag_of(overlay_page_number(1, 0x10), 3), writeback=False)
        system.install_overlay_line(1, 0x10, 3, b"2" * 64)
        data, _ = system.read(1, vaddr(0x10, 3), 8)
        assert data == b"2" * 8


class TestPromotionEdges:
    def test_promote_page_without_overlay(self, system):
        """Promotion of an overlay-less page is a harmless cleanup."""
        system.map_page(1, 0x10, 0x42)
        latency = system.promote(1, 0x10, "discard")
        assert latency >= 0
        assert system.overlay_line_count(1, 0x10) == 0

    def test_commit_without_overlay(self, system):
        system.map_page(1, 0x10, 0x42)
        system.main_memory.write_line(0x42, 0, b"k" * 64)
        system.promote(1, 0x10, "commit")
        assert system.line_bytes(1, 0x10, 0) == b"k" * 64


class TestMappingEdges:
    def test_update_unmapped_page_raises(self, system):
        system.register_address_space(1)
        with pytest.raises(PageTableError):
            system.update_mapping(1, 0x99, cow=True)

    def test_read_spanning_three_pages(self, system):
        for i in range(3):
            system.map_page(1, 0x10 + i, 0x40 + i)
        payload = bytes(range(256)) * 34  # 8704 bytes > 2 pages
        system.write(1, vaddr(0x10, 0, 100), payload)
        data, _ = system.read(1, vaddr(0x10, 0, 100), len(payload))
        assert data == payload

    def test_default_oms_pool_does_not_collide_with_frames(self, system):
        """The fallback OMS region lives far above workload frames."""
        from repro.core.framework import DEFAULT_OMS_FRAME_BASE
        base = system.oms._request_pages(1)[0]
        assert base >= DEFAULT_OMS_FRAME_BASE * PAGE_SIZE


class TestCopyEdges:
    def test_copy_via_cache_uses_freshest_dirty_data(self, system):
        """The page copy must see dirty cached lines, not stale frames."""
        system.map_page(1, 0x10, 0x42)
        system.write(1, vaddr(0x10, 7), b"DIRTY-IN-CACHE")
        # The frame itself is stale (write-back cache), but the copy
        # still observes the new data.
        system.copy_page_via_cache(0x42, 0x77)
        assert system.main_memory.read_line(0x77, 7)[:14] == b"DIRTY-IN-CACHE"

    def test_copy_via_dram_reflects_memory_only(self, system):
        system.main_memory.write_line(0x42, 0, b"m" * 64)
        system.copy_page_via_dram(0x42, 0x78)
        assert system.main_memory.read_line(0x78, 0) == b"m" * 64


def prefetch_stale_line(system, ppn, line=0):
    """Leave a zero-filled prefetched line of frame *ppn* in the L3, as
    the stream prefetcher does for a frame not yet allocated."""
    tag = line_tag_of(ppn, line)
    system.hierarchy.l3.fill(tag, data=ZERO_LINE, prefetch=True)
    assert system.hierarchy.lookup_data(tag) == ZERO_LINE


class TestCopyDestinationStaleLines:
    """A copy that writes a whole frame behind the caches must not leave
    a stale cached line of that frame visible."""

    def test_copy_and_commit_into_frame_with_prefetched_line(self, system):
        system.map_page(1, 0x10, 0x42)
        system.main_memory.write_page(0x42, b"p" * PAGE_SIZE)
        system.install_overlay_line(1, 0x10, 5, b"o" * 64)
        prefetch_stale_line(system, 0x90)
        system.promote(1, 0x10, "copy-and-commit", new_ppn=0x90)
        expected = b"p" * (5 * LINE_SIZE) + b"o" * 64 + b"p" * (58 * LINE_SIZE)
        assert system.page_bytes(1, 0x10) == expected

    def test_copy_via_dram_into_frame_with_prefetched_line(self, system):
        system.main_memory.write_page(0x42, b"m" * PAGE_SIZE)
        prefetch_stale_line(system, 0x78)
        system.copy_page_via_dram(0x42, 0x78)
        system.map_page(1, 0x20, 0x78)
        assert system.page_bytes(1, 0x20) == b"m" * PAGE_SIZE


class TestOverlayHitAccounting:
    def test_overlay_hits_counted(self, system):
        system.map_page(1, 0x10, 0x42)
        system.install_overlay_line(1, 0x10, 0, b"o" * 64)
        system.read(1, vaddr(0x10, 0), 8)
        system.read(1, vaddr(0x10, 1), 8)
        assert system.stats.overlay_hits == 1
