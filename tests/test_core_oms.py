"""Unit and property tests for the Overlay Memory Store (Section 4.4)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.oms import (OMSError, OutOfOverlayMemory, OverlayMemoryStore,
                            SEGMENT_SIZES, Segment, data_slot_capacity,
                            smallest_segment_for)

LINE = b"\x11" * 64


def make_line(value):
    return bytes([value % 256]) * 64


class TestSegmentGeometry:
    def test_ladder_matches_paper(self):
        """Five fixed sizes: 256B to 4KB (Section 4.4.2)."""
        assert SEGMENT_SIZES == (256, 512, 1024, 2048, 4096)

    def test_capacity_excludes_metadata_line(self):
        """Figure 7: a 256B segment stores up to three overlay lines."""
        assert data_slot_capacity(256) == 3
        assert data_slot_capacity(512) == 7
        assert data_slot_capacity(1024) == 15
        assert data_slot_capacity(2048) == 31

    def test_4kb_segment_has_no_metadata(self):
        assert data_slot_capacity(4096) == 64

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            data_slot_capacity(128)

    def test_smallest_segment_for(self):
        assert smallest_segment_for(0) == 256
        assert smallest_segment_for(1) == 256
        assert smallest_segment_for(3) == 256
        assert smallest_segment_for(4) == 512
        assert smallest_segment_for(7) == 512
        assert smallest_segment_for(8) == 1024
        assert smallest_segment_for(31) == 2048
        assert smallest_segment_for(32) == 4096
        assert smallest_segment_for(64) == 4096

    def test_smallest_segment_bounds(self):
        with pytest.raises(ValueError):
            smallest_segment_for(-1)
        with pytest.raises(ValueError):
            smallest_segment_for(65)


class TestSegment:
    def test_write_and_read_line(self):
        seg = Segment(base=0, size=256)
        assert seg.write_line(7, LINE)
        assert seg.has_line(7)
        assert seg.read_line(7) == LINE

    def test_read_missing_line_raises(self):
        seg = Segment(base=0, size=256)
        with pytest.raises(OMSError):
            seg.read_line(3)

    def test_overwrite_reuses_slot(self):
        seg = Segment(base=0, size=256)
        seg.write_line(1, make_line(1))
        slot = seg.slot_pointers[1]
        seg.write_line(1, make_line(2))
        assert seg.slot_pointers[1] == slot
        assert seg.read_line(1) == make_line(2)

    def test_full_segment_refuses_write(self):
        seg = Segment(base=0, size=256)
        for line in range(3):
            assert seg.write_line(line, make_line(line))
        assert not seg.write_line(10, LINE)

    def test_direct_mapped_4kb_uses_line_index_as_slot(self):
        seg = Segment(base=0, size=4096)
        seg.write_line(42, LINE)
        assert seg.slot_pointers[42] == 42

    def test_wrong_size_data_rejected(self):
        seg = Segment(base=0, size=256)
        with pytest.raises(ValueError):
            seg.write_line(0, b"short")

    def test_mapped_lines_sorted(self):
        seg = Segment(base=0, size=512)
        for line in (9, 1, 30):
            seg.write_line(line, LINE)
        assert seg.mapped_lines() == [1, 9, 30]


class TestStore:
    def test_allocates_smallest_fitting_segment(self):
        oms = OverlayMemoryStore()
        assert oms.allocate_segment(1).size == 256
        assert oms.allocate_segment(10).size == 1024
        assert oms.allocate_segment(64).size == 4096

    def test_write_line_grows_segment(self):
        """Migration to a larger segment (Section 4.4.2)."""
        oms = OverlayMemoryStore()
        seg = oms.allocate_segment(1)
        for line in range(5):
            seg = oms.write_line(seg, line, make_line(line))
        assert seg.size == 512
        for line in range(5):
            assert seg.read_line(line) == make_line(line)
        assert oms.stats.segment_migrations >= 1

    def test_growth_all_the_way_to_4kb(self):
        oms = OverlayMemoryStore()
        seg = oms.allocate_segment(1)
        for line in range(64):
            seg = oms.write_line(seg, line, make_line(line))
        assert seg.size == 4096
        assert seg.line_count == 64

    def test_cannot_grow_past_4kb(self):
        oms = OverlayMemoryStore()
        seg = oms.allocate_segment(64)
        with pytest.raises(OMSError):
            oms.migrate(seg)

    def test_free_segment_returns_space(self):
        oms = OverlayMemoryStore()
        seg = oms.allocate_segment(1)
        allocated = oms.allocated_bytes
        oms.free_segment(seg)
        assert oms.allocated_bytes == allocated - 256
        assert oms.live_segments() == []

    def test_double_free_rejected(self):
        oms = OverlayMemoryStore()
        seg = oms.allocate_segment(1)
        oms.free_segment(seg)
        with pytest.raises(OMSError):
            oms.free_segment(seg)

    def test_splitting_larger_segments(self):
        """Out of 256B segments -> split a 512B one (Section 4.4.3)."""
        oms = OverlayMemoryStore(initial_pages=1)
        before = oms.stats.segment_splits
        oms.allocate_segment(1)
        assert oms.stats.segment_splits > before

    def test_requests_pages_from_os_when_empty(self):
        granted = []

        def request(count):
            pages = [(1000 + len(granted) + i) * 4096 for i in range(count)]
            granted.extend(pages)
            return pages

        oms = OverlayMemoryStore(request_pages=request, initial_pages=1)
        for _ in range(40):  # far beyond one page of segments
            oms.allocate_segment(3)
        assert granted, "the controller never asked the OS for pages"
        assert oms.stats.os_page_requests > 0

    def test_out_of_memory_when_os_refuses(self):
        oms = OverlayMemoryStore(request_pages=lambda count: [],
                                 initial_pages=0)
        with pytest.raises(OutOfOverlayMemory):
            oms.allocate_segment(1)

    def test_freed_segments_are_reused(self):
        oms = OverlayMemoryStore(initial_pages=1)
        seg = oms.allocate_segment(1)
        base = seg.base
        oms.free_segment(seg)
        again = oms.allocate_segment(1)
        assert again.base == base

    def test_line_transfer_accounting(self):
        oms = OverlayMemoryStore()
        seg = oms.allocate_segment(1)
        before = oms.stats.memory_line_transfers
        seg = oms.write_line(seg, 0, LINE)
        oms.read_line(seg, 0)
        assert oms.stats.memory_line_transfers >= before + 2

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 63), st.integers(0, 255)),
                    min_size=1, max_size=80))
    def test_store_matches_dict_model(self, writes):
        """The OMS behaves as a (line -> data) map under growth."""
        oms = OverlayMemoryStore()
        seg = oms.allocate_segment(1)
        model = {}
        for line, value in writes:
            seg = oms.write_line(seg, line, make_line(value))
            model[line] = make_line(value)
        for line, expected in model.items():
            assert seg.read_line(line) == expected
        assert seg.line_count == len(model)
