# simlint: hot-path
"""The MMU (per-core translation path) and the overlay-aware memory
controller — the microarchitecture of Figure 6.

Three hardware changes over a conventional system (Section 4.3):

Ê  Main memory is split between regular physical pages and the Overlay
   Memory Store; the split lives in :class:`MemoryController`.
Ë  The memory controller gains the OMT cache
   (:class:`~repro.core.omt.OMTCache`).
Ì  TLB entries are widened with the ``OBitVector``; the fill path fetches
   it from the OMT, which is the extra TLB-miss cost the paper accepts.

The controller is the only component that ever touches the Overlay Memory
Store: overlay lines are located through the OMT exclusively on a full
cache-hierarchy miss (Section 4.3.1), and overlay memory is allocated
*lazily*, when a dirty overlay line is written back (Section 4.3.3) —
never on the store's critical path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .address import (LINE_SIZE, OVERLAY_BIT_MASK, ZERO_LINE,
                      overlay_page_number, tag_is_overlay)
from .obitvector import OBitVector
from .omt import OMTCache, OMTEntry, OverlayMappingTable
from .oms import OverlayMemoryStore
from .page_table import PageTable
from .tlb import TLB, TLBEntry
from ..config import DEFAULT_CONFIG, SystemConfig
from ..mem.dram import DRAM
from ..mem.mainmemory import MainMemory
from ..engine.component import Component

#: The overlay bit's position within a line *tag* (a tag is the line
#: address shifted right by 6) — ``tag & _OVERLAY_TAG_BIT`` is
#: :func:`~repro.core.address.tag_is_overlay` without the call.
_OVERLAY_TAG_BIT = OVERLAY_BIT_MASK >> 6


@dataclass
class ControllerStats:
    overlay_reads: int = 0
    overlay_writebacks: int = 0
    physical_writebacks: int = 0
    zero_line_fills: int = 0


class MemoryController(Component):
    """Resolves full-hierarchy misses, managing the OMT and the OMS.

    Installed into :class:`~repro.mem.hierarchy.MemoryHierarchy` as its
    ``read_miss`` / ``handle_writeback`` hooks.  :meth:`read_miss` serves
    a full miss in one call; :meth:`resolve_miss` and :meth:`fetch_data`
    are its two steps on their own, and it calls them for overlay lines.
    """

    def __init__(self, main_memory: MainMemory, dram: DRAM,
                 oms: OverlayMemoryStore,
                 omt: Optional[OverlayMappingTable] = None,
                 config: Optional[SystemConfig] = None,
                 parent: Optional[Component] = None):
        super().__init__("controller", parent=parent)
        config = config or DEFAULT_CONFIG
        self.main_memory = main_memory
        self.dram = dram
        self.oms = oms
        self.omt = omt or OverlayMappingTable()
        self.omt_cache = OMTCache(self.omt,
                                  capacity=config.omt_cache_entries)
        #: Cycles per table-walk memory access (an uncontended row-miss
        #: DRAM read).
        self.walk_access_cycles = config.table_walk_access_cycles
        self.stats = ControllerStats()
        self.stats_scope.own_block(self.stats)
        self.stats_scope.register_block("omt_cache", self.omt_cache.stats)
        self.attach_child(oms)
        self._now = 0

    # -- hierarchy hooks -------------------------------------------------------

    def read_miss(self, tag: int, now: int,
                  prefetch: bool = False) -> Tuple[int, int, Optional[bytes]]:
        """Serve a full-hierarchy miss (or a prefetch) of line *tag*.

        One call resolves the tag (:meth:`resolve_miss`), reads DRAM and
        returns the line's bytes (:meth:`fetch_data`), as
        ``(lookup_latency, dram_latency, data)``.  A demand miss issues
        its DRAM read once the lookup is done, at ``now +
        lookup_latency``; a prefetch issues at *now*.  A line with no
        backing yet reads no DRAM.  The bytes are fetched after the
        read, which may corrupt them under fault injection.
        """
        if not tag & _OVERLAY_TAG_BIT:
            cycles = self.dram.read(tag * LINE_SIZE, now)
            # MainMemory.read_line inlined — ``tag & 63`` is a line
            # index by construction, so the bounds check is satisfied.
            frame = self.main_memory._frames.get(tag >> 6)
            return 0, cycles, ZERO_LINE if frame is None else frame[tag & 63]
        address, lookup = self.resolve_miss(tag)
        cycles = 0
        if address is not None:
            cycles = self.dram.read(address, now if prefetch else now + lookup)
        return lookup, cycles, self.fetch_data(tag)

    def resolve_miss(self, tag: int) -> Tuple[Optional[int], int]:
        """Map a missing line tag to a DRAM address plus lookup latency.

        For a regular physical line the address is implicit in the tag.
        For an overlay line the controller consults the OMT cache; a miss
        there costs an OMT walk's worth of memory accesses (Section 4.4.4).
        Returns ``(None, latency)`` when the line has no backing yet (a
        remapped line whose only copy is still dirty in some cache, or a
        never-written overlay line, which reads as zero).
        """
        if not tag & _OVERLAY_TAG_BIT:
            return tag * LINE_SIZE, 0
        opn, line = tag >> 6, tag & 63
        entry, accesses = self.omt_cache.lookup(opn)
        latency = accesses * self.walk_access_cycles
        if entry is None or entry.segment is None or not entry.segment.has_line(line):
            return None, latency
        self.stats.overlay_reads += 1
        return entry.segment.line_address(line), latency

    def fetch_data(self, tag: int) -> Optional[bytes]:
        """Return backing bytes for a missing line (no latency charged —
        :meth:`resolve_miss` already accounted for the lookups)."""
        page, line = tag >> 6, tag & 63
        if not tag & _OVERLAY_TAG_BIT:
            return self.main_memory.read_line(page, line)
        entry = self.omt.lookup(page)
        if entry is None or entry.segment is None or not entry.segment.has_line(line):
            self.stats.zero_line_fills += 1
            return ZERO_LINE
        return self.oms.read_line(entry.segment, line)

    def handle_writeback(self, tag: int, data: Optional[bytes]) -> int:
        """Accept a dirty line evicted from the L3.

        Physical lines go to their frame.  Overlay lines trigger the lazy
        allocation path: ensure an OMT entry, allocate or grow the
        overlay's segment, store the line, and update the OMT — all off
        the execution critical path (Section 4.4: "these operations are
        rare and are not on the critical path of execution").
        """
        page, line = tag >> 6, tag & 63
        payload = data if data is not None else ZERO_LINE
        if not tag & _OVERLAY_TAG_BIT:
            # MainMemory.write_line without its checks and copy: a line
            # leaving the L3 is one immutable 64-byte object, and
            # ``tag & 63`` is a line index by construction.
            self.main_memory._frame(page)[line] = payload
            self.stats.physical_writebacks += 1
            return self.dram.write(tag * LINE_SIZE, self._now)
        entry, accesses = self.omt_cache.lookup(page, create=True)
        latency = accesses * self.walk_access_cycles
        if entry.segment is None:
            entry.segment = self.oms.allocate_segment(1)
        entry.segment = self.oms.write_line(entry.segment, line, payload)
        self.stats.overlay_writebacks += 1
        return latency + self.dram.write(entry.segment.line_address(line),
                                         self._now)

    # -- OMT management for the framework ---------------------------------------

    def omt_entry(self, opn: int, create: bool = False,
                  charge: bool = True) -> Tuple[Optional[OMTEntry], int]:
        """Fetch (and optionally create) the OMT entry for *opn*.

        With ``charge`` the OMT-cache lookup cost is converted to cycles;
        without, the raw table is consulted (used by data-fidelity views
        that must not perturb timing statistics).
        """
        if not charge:
            entry = self.omt.ensure(opn) if create else self.omt.lookup(opn)
            return entry, 0
        entry, accesses = self.omt_cache.lookup(opn, create=create)
        return entry, accesses * self.walk_access_cycles

    def drop_overlay(self, opn: int) -> None:
        """Free an overlay's segment and OMT entry (commit/discard)."""
        entry = self.omt.remove(opn)
        self.omt_cache.invalidate(opn)
        if entry is not None and entry.segment is not None:
            self.oms.free_segment(entry.segment)


class MMU:
    """Per-core address translation: TLB + page walk + OBitVector fill."""

    __slots__ = ("tlb", "page_tables", "controller")

    def __init__(self, tlb: TLB, page_tables: Dict[int, PageTable],
                 controller: MemoryController):
        self.tlb = tlb
        self.page_tables = page_tables
        self.controller = controller

    def translate(self, asid: int, vpn: int,
                  write: bool = False) -> Tuple[TLBEntry, int]:
        """Translate (*asid*, *vpn*) to ``(entry, latency)``; may raise
        :class:`~repro.core.page_table.PageFault`.

        A TLB miss costs the Table 2 miss penalty (page walk) plus, for
        overlay-enabled mappings, the OMT lookup that fetches the
        OBitVector into the new TLB entry (Section 4.3, change Ì).
        """
        entry, latency = self.tlb.lookup(asid, vpn)
        if entry is not None:
            return entry, latency
        table = self.page_tables.get(asid)
        if table is None:
            raise KeyError(f"no page table registered for ASID {asid}")
        pte, _walk_accesses = table.walk(vpn, write=write)
        obitvector: Optional[OBitVector] = None
        if pte.overlays_enabled:
            opn = overlay_page_number(asid, vpn)
            omt_entry, omt_latency = self.controller.omt_entry(opn, create=True)
            latency += omt_latency
            obitvector = omt_entry.obitvector
        entry = self.tlb.fill(asid, vpn, pte, obitvector)
        return entry, latency
