"""Tests for technique 7: flexible super-pages (Section 5.3.5)."""

import pytest

from repro.core.page_table import SUPERPAGE_SPAN
from repro.techniques.superpage import PAGES_PER_SEGMENT, SuperpageManager


def frame(process, vpn):
    """The frame the hardware page walk resolves *vpn* to."""
    return process.page_table.entry(vpn).ppn


@pytest.fixture
def setup(kernel):
    parent = kernel.create_process()
    child = kernel.create_process()
    manager = SuperpageManager(kernel)
    base_ppn = manager.map_superpage(parent, 0)
    return kernel, manager, parent, child, base_ppn


class TestMapping:
    def test_superpage_geometry(self):
        assert SUPERPAGE_SPAN == 512
        assert PAGES_PER_SEGMENT == 8  # 512 pages / 64 OBitVector bits

    def test_map_superpage_contiguous_aligned(self, setup):
        kernel, manager, parent, _, base_ppn = setup
        assert base_ppn % SUPERPAGE_SPAN == 0
        assert frame(parent, 100) == base_ppn + 100

    def test_unaligned_base_rejected(self, kernel):
        manager = SuperpageManager(kernel)
        process = kernel.create_process()
        with pytest.raises(ValueError):
            manager.map_superpage(process, 5)


class TestCowSharing:
    def test_share_cow_marks_both_sides(self, setup):
        kernel, manager, parent, child, base_ppn = setup
        manager.share_cow(parent, child, 0)
        for process in (parent, child):
            pte = process.page_table.superpage_entry(0)
            assert pte.cow and not pte.writable
        assert kernel.allocator.refcount(base_ppn) == 2

    def test_write_copies_only_one_segment(self, setup):
        kernel, manager, parent, child, base_ppn = setup
        manager.share_cow(parent, child, 0)
        copied = manager.write_page(child, 12)   # segment 1
        assert copied == PAGES_PER_SEGMENT
        # The written page is private, a distant page still shared.
        assert frame(child, 12) != base_ppn + 12
        assert frame(child, 400) == base_ppn + 400
        assert frame(parent, 12) == base_ppn + 12

    def test_segment_copy_preserves_data(self, setup):
        kernel, manager, parent, child, base_ppn = setup
        kernel.system.main_memory.write_line(base_ppn + 12, 0, b"S" * 64)
        manager.share_cow(parent, child, 0)
        manager.write_page(child, 12)
        private = frame(child, 12)
        assert kernel.system.main_memory.read_line(private, 0) == b"S" * 64

    def test_second_write_same_segment_is_free(self, setup):
        kernel, manager, parent, child, _ = setup
        manager.share_cow(parent, child, 0)
        manager.write_page(child, 12)
        assert manager.write_page(child, 13) == 0  # same 8-page segment
        assert manager.write_page(child, 20) == PAGES_PER_SEGMENT

    def test_sharers_diverge_independently(self, setup):
        kernel, manager, parent, child, base_ppn = setup
        manager.share_cow(parent, child, 0)
        manager.write_page(child, 0)
        manager.write_page(parent, 0)
        assert frame(child, 0) != frame(parent, 0)

    def test_framework_access_resolves_through_segment_overlay(self, setup):
        """After a segment copy, ordinary framework reads/writes hit the
        private frames — the PD-level overlay is transparent."""
        kernel, manager, parent, child, base_ppn = setup
        kernel.system.main_memory.write_line(base_ppn + 12, 0, b"B" * 64)
        manager.share_cow(parent, child, 0)
        manager.write_page(child, 12)
        # The hardware page walk now resolves page 12 to the private
        # frame for the child...
        data, _ = kernel.system.read(child.asid, 12 * 4096, 4)
        assert data == b"BBBB"
        kernel.system.write(child.asid, 12 * 4096, b"CHLD")
        # ...while the parent still reads the shared frame.
        parent_data, _ = kernel.system.read(parent.asid, 12 * 4096, 4)
        assert parent_data == b"BBBB"
        child_data, _ = kernel.system.read(child.asid, 12 * 4096, 4)
        assert child_data == b"CHLD"

    def test_write_to_unshared_superpage_rejected(self, setup):
        kernel, manager, parent, _, _ = setup
        with pytest.raises(KeyError):
            manager.write_page(parent, 3)
