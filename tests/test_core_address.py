"""Unit tests for repro.core.address — address spaces and bit layout."""

import pytest
from hypothesis import given, strategies as st

from repro.core import address as addr


class TestPageGeometry:
    def test_constants_are_consistent(self):
        assert addr.PAGE_SIZE == 4096
        assert addr.LINE_SIZE == 64
        assert addr.LINES_PER_PAGE == 64

    def test_page_number_and_offset(self):
        assert addr.page_number(0) == 0
        assert addr.page_number(4095) == 0
        assert addr.page_number(4096) == 1
        assert addr.page_offset(4097) == 1

    def test_line_index_within_page(self):
        assert addr.line_index(0) == 0
        assert addr.line_index(63) == 0
        assert addr.line_index(64) == 1
        assert addr.line_index(4095) == 63

    def test_line_address_rounds_down(self):
        assert addr.line_address(130) == 128
        assert addr.line_address(128) == 128

    def test_compose_round_trips(self):
        a = addr.compose(7, 130)
        assert addr.page_number(a) == 7
        assert addr.page_offset(a) == 130

    def test_compose_rejects_bad_offset(self):
        with pytest.raises(addr.AddressError):
            addr.compose(1, 4096)
        with pytest.raises(addr.AddressError):
            addr.compose(1, -1)

    def test_page_address_inverse_of_page_number(self):
        assert addr.page_address(3) == 3 * 4096
        assert addr.page_number(addr.page_address(123)) == 123

    def test_line_offset(self):
        assert addr.line_offset(70) == 6
        assert addr.line_offset(64) == 0


class TestOverlayAddressing:
    def test_overlay_bit_is_msb(self):
        a = addr.overlay_address(0, 0)
        assert a == 1 << 63
        assert addr.is_overlay_address(a)

    def test_regular_address_is_not_overlay(self):
        assert not addr.is_overlay_address(0x1234000)

    def test_figure5_layout(self):
        """Overlay address = overlay bit | ASID | vaddr (Figure 5)."""
        a = addr.overlay_address(5, 0xABC000)
        assert a == (1 << 63) | (5 << 48) | 0xABC000

    def test_decompose_round_trips(self):
        a = addr.overlay_address(77, 0xDEAD000)
        asid, vaddr = addr.decompose_overlay_address(a)
        assert asid == 77
        assert vaddr == 0xDEAD000

    def test_decompose_rejects_regular_address(self):
        with pytest.raises(addr.AddressError):
            addr.decompose_overlay_address(0x1000)

    def test_asid_range_enforced(self):
        """Section 4.1: 2^15 processes supported."""
        addr.overlay_address(addr.MAX_ASID - 1, 0)  # ok
        with pytest.raises(addr.AddressError):
            addr.overlay_address(addr.MAX_ASID, 0)
        with pytest.raises(addr.AddressError):
            addr.overlay_address(-1, 0)

    def test_vaddr_width_enforced(self):
        with pytest.raises(addr.AddressError):
            addr.overlay_address(0, 1 << 48)

    def test_max_asid_is_2_to_15(self):
        assert addr.MAX_ASID == 1 << 15

    def test_overlay_page_number_carries_overlay_bit(self):
        opn = addr.overlay_page_number(1, 0x100)
        assert addr.is_overlay_address(addr.page_address(opn))

    def test_distinct_processes_distinct_overlay_pages(self):
        """No two virtual pages may share an overlay page (Section 4.1)."""
        assert (addr.overlay_page_number(1, 0x100)
                != addr.overlay_page_number(2, 0x100))
        assert (addr.overlay_page_number(1, 0x100)
                != addr.overlay_page_number(1, 0x101))

    @given(st.integers(0, addr.MAX_ASID - 1),
           st.integers(0, (1 << 48) - 1))
    def test_overlay_mapping_is_injective(self, asid, vaddr):
        a = addr.overlay_address(asid, vaddr)
        assert addr.decompose_overlay_address(a) == (asid, vaddr)


class TestLineTags:
    def test_physical_tag_is_address_over_64(self):
        assert addr.line_tag_of(2, 3) == 2 * 64 + 3

    def test_overlay_tag_detection(self):
        opn = addr.overlay_page_number(3, 0x42)
        assert addr.tag_is_overlay(addr.line_tag_of(opn, 0))
        assert not addr.tag_is_overlay(addr.line_tag_of(0x42, 0))

    def test_physical_location_tags(self):
        loc = addr.PhysicalLocation(space="physical", page=5, line=7)
        assert loc.line_tag == 5 * 64 + 7

    def test_overlay_and_physical_tags_never_collide(self):
        opn = addr.overlay_page_number(0, 0)
        assert addr.line_tag_of(opn, 0) != addr.line_tag_of(0, 0)
        # Even ASID 0, VPN 0: the overlay bit keeps the spaces apart.
        assert addr.tag_is_overlay(addr.line_tag_of(opn, 0))


class TestVIPTCompatibility:
    """Section 3.1, Challenge 2: the naive compact-overlay address would
    break virtually-indexed physically-tagged L1 caches because the
    line's physical index would differ from its virtual index.  The
    dual-address design fixes this by giving the overlay address the
    same page-offset bits as the virtual address."""

    def test_overlay_address_preserves_page_offset(self):
        for asid, va in ((1, 0x1234), (7, 0xABCDEF40), (42, 0xFFF)):
            ov = addr.overlay_address(asid, va)
            assert addr.page_offset(ov) == addr.page_offset(va)

    def test_overlay_address_preserves_line_index(self):
        ov = addr.overlay_address(3, 0x5000 + 5 * 64)
        assert addr.line_index(ov) == 5

    @given(st.integers(0, addr.MAX_ASID - 1), st.integers(0, (1 << 48) - 1))
    def test_vipt_index_always_matches(self, asid, va):
        ov = addr.overlay_address(asid, va)
        # The L1 set index is derived from page-offset bits (VIPT), so
        # equal page offsets mean equal cache indices.
        assert ov % addr.PAGE_SIZE == va % addr.PAGE_SIZE
