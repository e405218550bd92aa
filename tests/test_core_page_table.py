"""Unit tests for the hierarchical page table."""

import pytest

from repro.core.page_table import (PAGE_TABLE_LEVELS, PTE, PageFault,
                                   PageTable, PageTableError, SUPERPAGE_SPAN)


class TestBasicMapping:
    def test_map_and_walk(self):
        table = PageTable(asid=1)
        table.map(0x10, 0x99)
        pte, accesses = table.walk(0x10)
        assert pte.ppn == 0x99
        assert accesses == PAGE_TABLE_LEVELS

    def test_walk_missing_faults(self):
        table = PageTable(asid=1)
        with pytest.raises(PageFault) as excinfo:
            table.walk(0x10)
        assert excinfo.value.vpn == 0x10
        assert table.stats.faults == 1

    def test_write_to_readonly_noncow_faults(self):
        table = PageTable(asid=1)
        table.map(0x10, 0x99, writable=False)
        with pytest.raises(PageFault):
            table.walk(0x10, write=True)

    def test_write_to_cow_page_does_not_fault_at_walk(self):
        """CoW writes are handled by the access path, not the walker."""
        table = PageTable(asid=1)
        table.map(0x10, 0x99, writable=False, cow=True)
        pte, _ = table.walk(0x10, write=True)
        assert pte.cow

    def test_unmap(self):
        table = PageTable(asid=1)
        table.map(0x10, 0x99)
        table.unmap(0x10)
        with pytest.raises(PageFault):
            table.walk(0x10)

    def test_unmap_missing_raises(self):
        table = PageTable(asid=1)
        with pytest.raises(PageTableError):
            table.unmap(0x10)

    def test_update_flags(self):
        table = PageTable(asid=1)
        table.map(0x10, 0x99)
        table.update(0x10, cow=True, writable=False)
        pte = table.entry(0x10)
        assert pte.cow and not pte.writable
        assert pte.ppn == 0x99

    def test_update_missing_raises(self):
        table = PageTable(asid=1)
        with pytest.raises(PageTableError):
            table.update(0x10, cow=True)

    def test_pte_is_immutable(self):
        pte = PTE(ppn=1)
        with pytest.raises(Exception):
            pte.ppn = 2

    def test_overlays_enabled_flag(self):
        table = PageTable(asid=1)
        table.map(0x10, 0x99, overlays_enabled=False)
        assert not table.entry(0x10).overlays_enabled

    def test_walk_counts_stats(self):
        table = PageTable(asid=1)
        table.map(0x10, 0x99)
        table.walk(0x10)
        table.walk(0x10)
        assert table.stats.walks == 2
        assert table.stats.walk_memory_accesses == 2 * PAGE_TABLE_LEVELS

    def test_len_counts_mappings(self):
        table = PageTable(asid=1)
        table.map(1, 1)
        table.map(2, 2)
        assert len(table) == 2
        assert sorted(table.mapped_vpns()) == [1, 2]


class TestSuperpages:
    def test_map_superpage_and_walk(self):
        table = PageTable(asid=1)
        table.map_superpage(0, 512)
        pte, accesses = table.walk(5)
        assert pte.ppn == 512 + 5
        assert pte.superpage
        # The walk stops one level early at the PD.
        assert accesses == PAGE_TABLE_LEVELS - 1

    def test_superpage_requires_alignment(self):
        table = PageTable(asid=1)
        with pytest.raises(PageTableError):
            table.map_superpage(1, 512)
        with pytest.raises(PageTableError):
            table.map_superpage(0, 5)

    def test_entry_adjusts_superpage_offset(self):
        table = PageTable(asid=1)
        table.map_superpage(0, 512)
        assert table.entry(7).ppn == 519
        assert table.entry(0).ppn == 512

    def test_superpage_len(self):
        table = PageTable(asid=1)
        table.map_superpage(0, 512)
        assert len(table) == SUPERPAGE_SPAN

    def test_base_pages_take_precedence(self):
        table = PageTable(asid=1)
        table.map_superpage(0, 512)
        table.map(5, 0x999)  # explicit base mapping overrides
        pte, _ = table.walk(5)
        assert pte.ppn == 0x999
