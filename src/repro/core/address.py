"""Address spaces and address arithmetic for the page-overlay framework.

The paper (Section 3.2, Figures 4 and 5) defines three address spaces:

* the **virtual address space** (48 bits per process),
* the **physical address space** (64 bits), of which only a small part is
  backed by DRAM; the unused upper half is repurposed as the **Overlay
  Address Space**, and
* the **main memory address space** (DRAM), split between regular physical
  pages and the Overlay Memory Store.

An overlay address is formed by concatenating a set overlay bit (the MSB),
the 15-bit process/address-space identifier, and the 48-bit virtual address
(Figure 5).  That direct mapping is what makes the virtual-to-overlay
translation table-free: it is implicit in the source address.

Addresses here are plain ``int``s.  This module is the single place where
bit layout knowledge lives; everything else calls these helpers.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Size of a virtual/physical page in bytes (Table 2: 4K pages).
PAGE_SIZE = 4096
#: Size of a cache line in bytes (Table 2: 64B cache lines).
LINE_SIZE = 64
#: Number of cache lines in one page — also the width of the OBitVector.
LINES_PER_PAGE = PAGE_SIZE // LINE_SIZE
#: The one shared all-zero line: what an unwritten line of a frame or an
#: overlay reads as.
ZERO_LINE = bytes(LINE_SIZE)

#: Number of bits in a per-process virtual address (Section 4.1).
VIRTUAL_ADDRESS_BITS = 48
#: Number of bits in a full physical address (Section 4.1).
PHYSICAL_ADDRESS_BITS = 64
#: Number of bits available for the address-space (process) identifier.
#: 64 = 1 (overlay bit) + 15 (ASID) + 48 (virtual address), supporting
#: 2^15 concurrent processes as stated in Section 4.1.
ASID_BITS = PHYSICAL_ADDRESS_BITS - 1 - VIRTUAL_ADDRESS_BITS
#: Maximum number of distinct address-space identifiers (2^15 = 32768).
MAX_ASID = 1 << ASID_BITS

#: Bit position of the overlay bit within a physical address (the MSB).
OVERLAY_BIT_SHIFT = PHYSICAL_ADDRESS_BITS - 1
#: Mask selecting the overlay bit.
OVERLAY_BIT_MASK = 1 << OVERLAY_BIT_SHIFT

_PAGE_OFFSET_MASK = PAGE_SIZE - 1
_LINE_OFFSET_MASK = LINE_SIZE - 1
_VADDR_MASK = (1 << VIRTUAL_ADDRESS_BITS) - 1


class AddressError(ValueError):
    """Raised when an address or identifier is out of range for its space."""


def page_number(address: int) -> int:
    """Return the page number (virtual or physical) containing *address*."""
    return address >> 12  # log2(PAGE_SIZE)


def page_offset(address: int) -> int:
    """Return the byte offset of *address* within its page."""
    return address & _PAGE_OFFSET_MASK


def line_index(address: int) -> int:
    """Return the cache-line index (0..63) of *address* within its page."""
    return page_offset(address) >> 6  # log2(LINE_SIZE)


def line_offset(address: int) -> int:
    """Return the byte offset of *address* within its cache line."""
    return address & _LINE_OFFSET_MASK


def line_number(address: int) -> int:
    """Return the global cache-line number containing *address*."""
    return address >> 6


def line_address(address: int) -> int:
    """Return *address* rounded down to its cache-line boundary."""
    return address & ~_LINE_OFFSET_MASK


def page_address(page: int) -> int:
    """Return the first byte address of page number *page*."""
    return page << 12


def compose(page: int, offset: int) -> int:
    """Return the address at byte *offset* within page number *page*."""
    if not 0 <= offset < PAGE_SIZE:
        raise AddressError(f"page offset {offset} out of range")
    return (page << 12) | offset


def is_overlay_address(physical_address: int) -> bool:
    """Return True if *physical_address* lies in the Overlay Address Space.

    The memory controller performs exactly this check (Section 4.3.1): it
    inspects the overlay bit (MSB) of the physical address of a request
    that missed the entire cache hierarchy.
    """
    return bool(physical_address & OVERLAY_BIT_MASK)


def overlay_address(asid: int, vaddr: int) -> int:
    """Map a virtual address to its overlay address (Figure 5).

    The overlay address is ``overlay_bit(1) | ASID | vaddr``.  Because no
    two virtual pages may map to the same overlay page (the constraint of
    Section 4.1), this mapping is 1-1 and needs no table.
    """
    if not 0 <= asid < MAX_ASID:
        raise AddressError(f"ASID {asid} out of range (max {MAX_ASID - 1})")
    if not 0 <= vaddr <= _VADDR_MASK:
        raise AddressError(f"virtual address {vaddr:#x} wider than 48 bits")
    return OVERLAY_BIT_MASK | (asid << VIRTUAL_ADDRESS_BITS) | vaddr


def overlay_page_number(asid: int, virtual_page: int) -> int:
    """Return the overlay page number (OPN) for *virtual_page* of *asid*."""
    return page_number(overlay_address(asid, page_address(virtual_page)))


def decompose_overlay_address(physical_address: int) -> tuple[int, int]:
    """Split an overlay address back into ``(asid, vaddr)``.

    Inverse of :func:`overlay_address`.  Raises :class:`AddressError` when
    the overlay bit is not set, because only overlay addresses carry an
    ASID/vaddr payload.
    """
    if not is_overlay_address(physical_address):
        raise AddressError(f"{physical_address:#x} is not an overlay address")
    payload = physical_address & ~OVERLAY_BIT_MASK
    return payload >> VIRTUAL_ADDRESS_BITS, payload & _VADDR_MASK


@dataclass(frozen=True)
class PhysicalLocation:
    """A resolved physical location: which space, page, and line.

    ``space`` is either ``"physical"`` (DRAM-backed regular page) or
    ``"overlay"`` (Overlay Address Space; backed indirectly through the
    Overlay Memory Store).
    """

    space: str
    page: int
    line: int

    @property
    def line_tag(self) -> int:
        """Globally unique cache-line tag used by the cache hierarchy.

        Simply the line's physical address divided by the line size; an
        overlay page number already carries the overlay (MSB) bit, so
        overlay and regular tags can never collide.
        """
        return self.page * LINES_PER_PAGE + self.line


def tag_is_overlay(line_tag: int) -> bool:
    """Return True when a cache-line tag addresses the Overlay Address
    Space (the memory controller's check in Section 4.3.1)."""
    return is_overlay_address(line_tag << 6)


def line_tag_of(page: int, line: int) -> int:
    """Compose a cache-line tag from a page number and line index."""
    return page * LINES_PER_PAGE + line
