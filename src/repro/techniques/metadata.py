"""Technique 6: fine-grained metadata management (Section 5.3.4).

The Overlay Address Space doubles as *shadow memory*: the overlay of a
virtual page stores metadata about that page's data (taint bits,
protection bits, memcheck state...) instead of an alternate version of
the data.  Regular loads and stores see only the data; new ``metadata
load`` / ``metadata store`` instructions access the overlay.

Crucially, the OBitVector stays clear — metadata pages must NOT divert
regular accesses to the overlay — so the metadata lives in OMS segments
reachable through the OMT but invisible to the data path.  One metadata
byte shadows each 8-byte word by default (configurable), which is the
granularity taint-tracking and memcheck tools use.
"""

from __future__ import annotations

from dataclasses import dataclass
from ..core.address import (LINE_SIZE, ZERO_LINE, line_index, line_offset,
                            overlay_page_number, page_number)

#: Data bytes shadowed by one metadata byte (one tag per 64-bit word).
WORD_BYTES = 8


@dataclass
class MetadataStats:
    metadata_loads: int = 0
    metadata_stores: int = 0
    shadow_lines: int = 0


class MetadataManager:
    """Word-granularity shadow memory in the Overlay Address Space."""

    def __init__(self, kernel, process):
        self.kernel = kernel
        self.process = process
        self.stats = MetadataStats()

    # -- the shadow line backing a data line -----------------------------------------

    def _shadow_entry(self, vpn: int, create: bool):
        system = self.kernel.system
        opn = overlay_page_number(self.process.asid, vpn)
        entry, _ = system.controller.omt_entry(opn, create=create,
                                               charge=False)
        return entry

    def _load_shadow_line(self, vpn: int, line: int) -> bytes:
        entry = self._shadow_entry(vpn, create=False)
        if entry is None or entry.segment is None or not entry.segment.has_line(line):
            return ZERO_LINE
        return entry.segment.read_line(line)

    def _store_shadow_line(self, vpn: int, line: int, payload: bytes) -> None:
        system = self.kernel.system
        entry = self._shadow_entry(vpn, create=True)
        entry.shadow = True
        if entry.segment is None:
            entry.segment = system.oms.allocate_segment(1)
            self.stats.shadow_lines += 0  # counted per line below
        if not entry.segment.has_line(line):
            self.stats.shadow_lines += 1
        entry.segment = system.oms.write_line(entry.segment, line, payload)
        # NOTE: the OBitVector is deliberately NOT set — regular accesses
        # must keep reading the data, not the metadata.  ``shadow`` tells
        # the invariant checker so.

    # -- the metadata load/store instructions -----------------------------------------

    def metadata_store(self, vaddr: int, tag: int) -> None:
        """Set the metadata byte shadowing the word at *vaddr*."""
        if not 0 <= tag < 256:
            raise ValueError("metadata tag must fit one byte")
        vpn = page_number(vaddr)
        if vpn not in self.process.mappings:
            raise KeyError(f"VPN {vpn:#x} not mapped")
        line = line_index(vaddr)
        slot = line_offset(vaddr) // WORD_BYTES
        shadow = bytearray(self._load_shadow_line(vpn, line))
        shadow[slot] = tag
        self._store_shadow_line(vpn, line, bytes(shadow))
        self.stats.metadata_stores += 1

    def metadata_load(self, vaddr: int) -> int:
        """Read the metadata byte shadowing the word at *vaddr*."""
        vpn = page_number(vaddr)
        if vpn not in self.process.mappings:
            raise KeyError(f"VPN {vpn:#x} not mapped")
        line = line_index(vaddr)
        slot = line_offset(vaddr) // WORD_BYTES
        self.stats.metadata_loads += 1
        return self._load_shadow_line(vpn, line)[slot]

    # -- bulk helpers for tools built on top (taint tracking etc.) ------------------------

    def taint_range(  # simlint: disable=SL007 the technique's API
            self, vaddr: int, length: int, tag: int = 1) -> None:
        """Tag every word overlapping [vaddr, vaddr+length)."""
        start = (vaddr // WORD_BYTES) * WORD_BYTES
        end = vaddr + length
        word = start
        while word < end:
            self.metadata_store(word, tag)
            word += WORD_BYTES

    def is_tainted(  # simlint: disable=SL007 the technique's API
            self, vaddr: int, length: int) -> bool:
        """True if any word overlapping the range carries a non-zero tag."""
        start = (vaddr // WORD_BYTES) * WORD_BYTES
        word = start
        while word < vaddr + length:
            if self.metadata_load(word):
                return True
            word += WORD_BYTES
        return False

    @property
    def shadow_bytes(self) -> int:
        """Memory consumed by shadow lines (64B per shadowed data line,
        versus a full shadow page per data page in page-granularity
        schemes)."""
        return self.stats.shadow_lines * LINE_SIZE
