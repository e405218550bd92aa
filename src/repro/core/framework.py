"""The page-overlay framework facade — access semantics of Section 2.1,
memory operations of Section 4.3, and overlay promotion of Section 4.3.4.

:class:`OverlaySystem` wires every hardware structure together:

* per-core TLBs and MMUs (translation + OBitVector fill),
* the shared three-level cache hierarchy and prefetcher,
* the DRAM channel and the byte-accurate main memory,
* the memory controller with its OMT, OMT cache and Overlay Memory Store,
* the coherence network carrying *overlaying read exclusive* messages.

Access semantics (Figure 2): a cache line whose OBitVector bit is set is
accessed from the overlay; all other lines are accessed from the regular
physical page.  The three memory operations of Section 4.3 map to:

* **read** / **simple write** — :meth:`OverlaySystem.read` /
  :meth:`OverlaySystem.write` hitting either space directly;
* **overlaying write** — :meth:`OverlaySystem.overlaying_write`, the
  three-step remap (retag, coherence message, write) that replaces the
  baseline's page copy + TLB shootdown.

Policy for writes to copy-on-write pages is pluggable through the
``cow_handler`` hook so the copy-on-write baseline (:mod:`repro.osmodel.cow`)
and overlay-on-write (:mod:`repro.techniques.overlay_on_write`) run on the
same substrate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from .address import (LINE_SIZE, LINES_PER_PAGE, OVERLAY_BIT_MASK,
                      VIRTUAL_ADDRESS_BITS, ZERO_LINE, line_index, line_offset,
                      line_tag_of, overlay_page_number, page_number)
from .coherence import CoherenceNetwork
from .mmu import MemoryController, MMU
from .oms import OverlayMemoryStore, counter_page_source
from .page_table import PTE, PageFault, PageTable
from .tlb import TLB, TLBEntry
from ..config import DEFAULT_CONFIG, SystemConfig
from ..engine.clock import SimClock
from ..engine.component import Component
from ..mem.dram import DRAM
from ..mem.hierarchy import MemoryHierarchy
from ..mem.mainmemory import MainMemory

#: Frame number where the default OMS page pool begins — far above any
#: frame a workload will map, so the two regions of main memory
#: (Ê in Figure 6) never collide in the default wiring.
DEFAULT_OMS_FRAME_BASE = 1 << 30

#: The overlay page number of (asid, vpn) is ``_OPN_BIT | (asid <<
#: _OPN_ASID_SHIFT) | vpn``: Figure 5's overlay address in page units.
_OPN_BIT = OVERLAY_BIT_MASK >> 12
_OPN_ASID_SHIFT = VIRTUAL_ADDRESS_BITS - 12

#: Promotion actions of Section 4.3.4.
PROMOTE_ACTIONS = ("copy-and-commit", "commit", "discard")

#: Signature of a copy-on-write policy hook: called on a write to a CoW
#: page whose target line is not in the overlay, with the page's TLB
#: entry; must perform the store and return the latency of doing so.
CowHandler = Callable[["OverlaySystem", int, int, bytes, int, TLBEntry], int]


class CowWriteFault(RuntimeError):
    """Raised when no copy-on-write handler is installed."""


@dataclass
class FrameworkStats:
    reads: int = 0
    writes: int = 0
    overlay_hits: int = 0
    overlaying_writes: int = 0
    simple_overlay_writes: int = 0
    cow_triggers: int = 0
    mapping_recoveries: int = 0
    promotions: Dict[str, int] = field(
        default_factory=lambda: {action: 0 for action in PROMOTE_ACTIONS})


def default_cow_handler(system: "OverlaySystem", asid: int, vaddr: int,
                        data: bytes, core: int, entry: TLBEntry) -> int:
    """Overlay-on-write: the framework's native CoW response (Section 2.2)."""
    return system.overlaying_write(asid, vaddr, data, core=core, entry=entry)


class OverlaySystem(Component):
    """A complete simulated machine with page-overlay support.

    The system is the root of the machine's stats tree: every hardware
    structure below it (hierarchy, caches, DRAM, controller, OMS, TLBs,
    coherence network) is built from the system's
    :class:`~repro.config.SystemConfig` and registers its statistics
    once, at construction, in the system's
    :class:`~repro.engine.stats.StatsRegistry`.  The system owns the
    machine's one :class:`~repro.engine.clock.SimClock`.
    """

    def __init__(self, num_cores: int = 1,
                 cow_handler: Optional[CowHandler] = None,
                 oms_request_pages: Optional[Callable[[int], List[int]]] = None,
                 oms_initial_pages: int = 16,
                 overlays_enabled: bool = True,
                 oms_page_per_overlay: bool = False,
                 config: Optional[SystemConfig] = None):
        if num_cores < 1:
            raise ValueError("need at least one core")
        super().__init__("system")
        config = config or DEFAULT_CONFIG
        self.config = config
        self.sim_clock = SimClock()
        self.main_memory = MainMemory()
        self.dram = DRAM(config, parent=self)
        self.oms = OverlayMemoryStore(
            request_pages=(oms_request_pages
                           or counter_page_source(DEFAULT_OMS_FRAME_BASE)),
            initial_pages=oms_initial_pages,
            page_per_overlay=oms_page_per_overlay)
        self.controller = MemoryController(
            self.main_memory, self.dram, self.oms, config=config,
            parent=self)
        self.hierarchy = MemoryHierarchy(
            dram=self.dram,
            read_miss=self.controller.read_miss,
            handle_writeback=self.controller.handle_writeback,
            config=config, parent=self)
        self.page_tables: Dict[int, PageTable] = {}
        self.tlbs = [TLB(l1_entries=config.l1_tlb_entries,
                         l1_ways=config.l1_tlb_ways,
                         l2_entries=config.l2_tlb_entries,
                         l1_latency=config.l1_tlb_latency,
                         l2_latency=config.l2_tlb_latency,
                         miss_latency=config.tlb_miss_latency,
                         name=f"tlb{index}", parent=self)
                     for index in range(num_cores)]
        self.coherence = CoherenceNetwork(tlbs=list(self.tlbs), config=config,
                                          parent=self)
        self.mmus = [MMU(tlb, self.page_tables, self.controller)
                     for tlb in self.tlbs]
        self.cow_handler: CowHandler = cow_handler or default_cow_handler
        self.overlays_enabled = overlays_enabled
        #: Set when the overlay subsystem is deemed untrustworthy (too
        #: many unrecoverable faults); the kernel's graceful-degradation
        #: path checks it before falling back to full-page copy-on-write.
        self.overlay_faulted = False
        self.stats = FrameworkStats()
        self.stats_scope.register_block("framework", self.stats)
        self._serializing_event = False

    # -- the machine's timeline -------------------------------------------------

    @property
    def clock(self) -> int:
        """The current cycle, as an integer.

        Reads and writes delegate to the shared
        :class:`~repro.engine.clock.SimClock`.  Assignment goes through
        :meth:`~repro.engine.clock.SimClock.seek` because the multi-core
        scheduler legitimately repositions the system's notion of "now"
        backwards when it switches focus to a core whose local time lags.
        """
        return self.sim_clock.now

    @clock.setter
    def clock(self, cycle: int) -> None:
        self.sim_clock.seek(cycle)

    # -- trap semantics ---------------------------------------------------------

    def note_serializing_event(self) -> None:
        """Mark the in-flight access as pipeline-serializing (a trap).

        A software page-fault handler (the copy-on-write baseline) flushes
        the pipeline and runs in the kernel: nothing overlaps it.  The
        timing model drains the instruction window around such accesses:
        :meth:`~repro.cpu.core.Core.step` reads and clears the flag after
        each access.  Hardware-handled events (overlaying writes) never
        set this.
        """
        self._serializing_event = True

    # -- address-space management (OS-facing) ---------------------------------

    def register_address_space(self, asid: int) -> PageTable:
        """Create (or return) the page table for *asid*."""
        table = self.page_tables.get(asid)
        if table is None:
            table = PageTable(asid=asid)
            self.page_tables[asid] = table
        return table

    def map_page(self, asid: int, vpn: int, ppn: int, *, writable: bool = True,
                 cow: bool = False, overlays_enabled: Optional[bool] = None) -> PTE:
        """Install a 4KB mapping (creating the address space if needed)."""
        if overlays_enabled is None:
            overlays_enabled = self.overlays_enabled
        table = self.register_address_space(asid)
        return table.map(vpn, ppn, writable=writable, cow=cow,
                         overlays_enabled=overlays_enabled)

    def update_mapping(self, asid: int, vpn: int, **flags) -> PTE:
        """Edit a PTE and invalidate stale TLB copies everywhere."""
        table = self.page_tables[asid]
        pte = table.update(vpn, **flags)
        for tlb in self.tlbs:
            tlb.shootdown(asid, vpn)
        return pte

    # -- the demand access path (Section 4.3) ----------------------------------

    def access_line(self, asid: int, vaddr: int, data: Optional[bytes],
                    core: int, now: int, entry: Optional[TLBEntry] = None,
                    out: Optional[List[bytes]] = None) -> int:
        """One access within a single cache line; returns its latency.

        The one line dispatch of Section 4.3: translate (unless the
        caller passes the page's TLB *entry*, already charged; a TLB
        hit in either level is resolved here), pick the
        overlay or the physical tag from the OBitVector, then a read
        (*data* is None), a simple write, or — for a line of a
        copy-on-write page not in the overlay — the installed CoW
        policy.  *now* is the cycle the access issues at.  A read
        appends the line's 64 bytes to *out* when one is given; a
        caller that discards the data passes none.  The request
        counters (``reads``/``writes``) are the caller's.
        """
        if entry is None:
            # TLB.lookup inlined for a hit in either level: one dict
            # lookup per array probed, with its LRU touch and its stats;
            # an L2 hit is promoted into the L1 array, evicting the L1
            # set's least recent entry when it is full.  A miss in both
            # translates through the MMU.
            vpn = vaddr >> 12
            tlb = self.tlbs[core]
            l1_tlb = tlb._l1
            key = (asid, vpn)
            bucket = l1_tlb._buckets[(vpn ^ asid) % l1_tlb._sets]
            entry = bucket.get(key)
            if entry is not None:
                bucket.move_to_end(key)
                tlb.stats.l1_hits += 1
                latency = tlb.l1_latency
            else:
                l2_tlb = tlb._l2
                l2_bucket = l2_tlb._buckets[(vpn ^ asid) % l2_tlb._sets]
                entry = l2_bucket.get(key)
                if entry is not None:
                    l2_bucket.move_to_end(key)
                    tlb.stats.l2_hits += 1
                    if len(bucket) >= l1_tlb._ways:
                        bucket.popitem(last=False)
                    bucket[key] = entry
                    latency = tlb.l1_latency + tlb.l2_latency
                else:
                    entry, latency = self.mmus[core].translate(
                        asid, vpn, data is not None)
        else:
            latency = 0
        # Tag arithmetic inlined (line_tag_of, overlay_page_number and
        # OBitVector.is_set); the TLB fill validated (asid, vpn) already.
        line = (vaddr >> 6) & 63
        pte = entry.pte
        in_overlay = pte.overlays_enabled and entry.obitvector._bits >> line & 1
        if in_overlay:
            tag = ((_OPN_BIT | asid << _OPN_ASID_SHIFT | vaddr >> 12) << 6
                   | line)
        else:
            tag = pte.ppn << 6 | line
        if data is None:
            if in_overlay:
                self.stats.overlay_hits += 1
            latency += self.hierarchy.access(tag, False, None,
                                             now + latency)
            if out is not None:
                out.append(self.hierarchy.lookup_data(tag) or ZERO_LINE)
            return latency
        if not in_overlay and pte.cow:
            self.stats.cow_triggers += 1
            if self.cow_handler is None:
                raise CowWriteFault(f"CoW write at {vaddr:#x} with no handler")
            return latency + self.cow_handler(self, asid, vaddr, data,
                                              core, entry)
        if in_overlay:
            self.stats.simple_overlay_writes += 1
        return latency + self._store_line(tag, vaddr, data, now + latency)

    def read(self, asid: int, vaddr: int, size: int = 8,
             core: int = 0) -> tuple:
        """Read *size* bytes at *vaddr*; returns ``(data, latency_cycles)``.

        The access may span cache lines and even pages; every line is a
        separate hierarchy access, and each page is translated once.
        """
        self.stats.reads += 1
        latency = 0
        out = bytearray()
        lines: List[bytes] = []
        cursor = vaddr
        remaining = size
        last_vpn = None
        while remaining > 0:
            offset = line_offset(cursor)
            take = min(remaining, LINE_SIZE - offset)
            vpn = page_number(cursor)
            if vpn != last_vpn:
                entry, translate_latency = self.mmus[core].translate(
                    asid, vpn)
                latency += translate_latency
                last_vpn = vpn
            latency += self.access_line(asid, cursor, None, core,
                                        self.clock + latency, entry, lines)
            out += lines[-1][offset:offset + take]
            cursor += take
            remaining -= take
        return bytes(out), latency

    def write(self, asid: int, vaddr: int, data: bytes, core: int = 0) -> int:
        """Write *data* at *vaddr*; returns the latency in cycles.

        Dispatches per Section 4.3 (see :meth:`access_line`): a line
        already in the overlay takes the *simple write* path; a line of
        a copy-on-write page not in the overlay triggers the installed
        CoW policy (overlaying write by default); anything else is a
        regular store.  Writes may span lines and pages.
        """
        self.stats.writes += 1
        latency = 0
        cursor = vaddr
        payload = bytes(data)
        while payload:
            take = min(len(payload), LINE_SIZE - line_offset(cursor))
            chunk, payload = payload[:take], payload[take:]
            # Each line access consults the TLB afresh — essential when a
            # CoW break remaps the page mid-way through a spanning write.
            latency += self.access_line(asid, cursor, chunk, core,
                                        self.clock + latency)
            cursor += take
        return latency

    def _store_line(self, tag: int, vaddr: int, chunk: bytes, now: int) -> int:
        """Store *chunk* into the line holding *vaddr* (read-modify-write
        when the store covers only part of the line)."""
        offset = line_offset(vaddr)
        access = self.hierarchy.access
        if len(chunk) == LINE_SIZE and offset == 0:
            return access(tag, True, chunk, now)
        fetch = access(tag, False, None, now)
        current = self.hierarchy.lookup_data(tag) or ZERO_LINE
        patched = current[:offset] + chunk + current[offset + len(chunk):]
        return fetch + access(tag, True, patched, now + fetch)

    # -- the overlaying write (Section 4.3.3) -----------------------------------

    def overlaying_write(self, asid: int, vaddr: int, chunk: bytes,
                         core: int = 0,
                         entry: Optional[TLBEntry] = None) -> int:
        """Remap one line into the overlay and perform the store.

        The three steps of Section 4.3.3: (1) move the physical line's
        data to the overlay address — a cache-tag rewrite when the line is
        resident, an explicit fetch otherwise; (2) keep TLBs and the OMT
        coherent with a single *overlaying read exclusive* message instead
        of a TLB shootdown; (3) process the write as a simple write.
        Overlay memory is NOT allocated here — that happens lazily when
        the dirty line is evicted (the controller's writeback path).
        *entry* is the page's TLB entry when the caller has translated.
        """
        if entry is None:
            entry, _latency = self.mmus[core].translate(
                asid, page_number(vaddr), write=True)
        vpn = page_number(vaddr)
        line = line_index(vaddr)
        pte = entry.pte
        if not pte.overlays_enabled:
            raise CowWriteFault("overlays are disabled for this mapping")
        opn = overlay_page_number(asid, vpn)
        phys_tag = line_tag_of(pte.ppn, line)
        ov_tag = line_tag_of(opn, line)
        latency = 0

        # Step 1: bring the physical line's current data under the overlay tag.
        # A dirty physical copy must reach its frame first: the retag
        # would otherwise abandon pre-remap data that exists nowhere else
        # (a later `discard` promotion must find it in the frame).
        dirty = self.hierarchy.dirty_data(phys_tag)
        if dirty is not None:
            self.main_memory.write_line(pte.ppn, line, dirty)
            self.dram.write(phys_tag * LINE_SIZE, self.clock)
            self.hierarchy.clean(phys_tag)
        if not self.hierarchy.retag(phys_tag, ov_tag):
            latency += self.hierarchy.access(phys_tag, write=False,
                                             now=self.clock + latency)
            self.hierarchy.retag(phys_tag, ov_tag)

        # Step 2: one coherence message updates every TLB and the OMT.
        # The message is one-way: the store does not wait for the memory
        # controller's OMT update (Section 4.3.3 — the request "is also
        # sent to the memory controller so that it can update the
        # OBitVector ... via the OMT Cache"), so only the on-chip message
        # latency lands on the critical path.
        omt_entry, _ = self.controller.omt_entry(opn, create=True,
                                                 charge=False)
        latency += self.coherence.overlaying_read_exclusive(
            opn, line, omt_entry, now=self.clock + latency)

        # Step 3: the store itself, now a simple overlay write.
        latency += self._store_line(ov_tag, vaddr, chunk, now=self.clock + latency)
        self.stats.overlaying_writes += 1
        return latency

    # -- detection/recovery (repro.robust) -----------------------------------------

    def mark_overlay_faulted(self) -> None:
        """Declare the overlay subsystem untrustworthy.

        Recovery escalation: once set, the OS should degrade to the
        full-page copy-on-write baseline
        (:meth:`repro.osmodel.kernel.Kernel.degrade_to_full_page_cow`).
        """
        self.overlay_faulted = True
        self.trace_event("robust", "overlay_faulted", None)

    def recover_overlay_mapping(self, asid: int, vpn: int) -> int:
        """OMT re-walk on detected mapping corruption; returns the latency.

        The recovery sequence a memory controller would run when an
        integrity check flags (*asid*, *vpn*):

        1. shoot down every (possibly corrupt) TLB copy of the mapping
           and drop the OMT-cache line, then re-walk the in-memory OMT —
           both charged at their Table 2 latencies;
        2. reconcile metadata with data: a line dirty under the overlay
           tag (or stored in a segment) whose OMT bit is unset lost its
           *overlaying read exclusive* message — re-issue it; an OMT bit
           set with no overlay data anywhere (no dirty cached line, no
           segment slot) is a spurious flip — clear it before a read
           returns zero-filled garbage;
        3. re-assert overlay exclusivity: drop any cached physical copy
           of a line the OMT maps to the overlay (the frame keeps the
           pre-remap data, as ``discard`` promotion requires).
        """
        opn = overlay_page_number(asid, vpn)
        latency = self.coherence.shootdown(asid, vpn)
        self.controller.omt_cache.invalidate(opn)
        entry, walk_latency = self.controller.omt_entry(opn, charge=True)
        latency += walk_latency
        table = self.page_tables.get(asid)
        pte = table.entry(vpn) if table is not None else None
        if pte is None:
            # No mapping owns this overlay; the only consistent state is
            # no overlay at all — drop the orphan entry and its segment.
            if entry is not None:
                self.controller.drop_overlay(opn)
            self.stats.mapping_recoveries += 1
            return latency
        segment = entry.segment if entry is not None else None
        for line in range(LINES_PER_PAGE):
            ov_tag = line_tag_of(opn, line)
            overlay_cached = (
                self.hierarchy.dirty_data(ov_tag) is not None
                or (segment is not None and segment.has_line(line)))
            in_overlay = (entry is not None
                          and entry.obitvector.is_set(line))
            if overlay_cached and not in_overlay:
                entry, _ = self.controller.omt_entry(opn, create=True,
                                                     charge=False)
                latency += self.coherence.overlaying_read_exclusive(
                    opn, line, entry, now=self.clock + latency)
                segment = entry.segment
                in_overlay = True
            elif in_overlay and not overlay_cached and (
                    segment is None or not segment.has_line(line)):
                entry.obitvector.clear(line)
                in_overlay = False
            if in_overlay:
                self.hierarchy.invalidate(line_tag_of(pte.ppn, line),
                                          writeback=False)
        self.stats.mapping_recoveries += 1
        self.trace_event("robust", "mapping_recovery",
                         {"asid": asid, "vpn": vpn, "latency": latency})
        return latency

    # -- software overlay population (sparse data, metadata, ...) -----------------

    def install_overlay_line(self, asid: int, vpn: int, line: int,
                             data: bytes) -> None:
        """Directly place *data* into the overlay of (*asid*, *vpn*).

        A software/OS-level operation used when a technique builds an
        overlay up front (e.g. the sparse-data-structure representation of
        Section 5.2 mapping non-zero lines into overlays).  Bypasses the
        caches; updates the OMS, the OMT and every TLB.
        """
        opn = overlay_page_number(asid, vpn)
        entry, _ = self.controller.omt_entry(opn, create=True, charge=False)
        if entry.segment is None:
            entry.segment = self.oms.allocate_segment(1)
        entry.segment = self.oms.write_line(entry.segment, line, data)
        # Any cached copy of a previous installation is now stale.
        self.hierarchy.invalidate(line_tag_of(opn, line), writeback=False)
        self.coherence.overlaying_read_exclusive(opn, line, entry)

    # -- data-fidelity views --------------------------------------------------------

    def line_bytes(self, asid: int, vpn: int, line: int) -> bytes:
        """Freshest 64 bytes of a line, per the overlay access semantics.

        Checks the caches first (dirty copies), then the Overlay Memory
        Store or the physical frame.  Never perturbs timing statistics.
        """
        table = self.page_tables[asid]
        pte = table.entry(vpn)
        if pte is None:
            raise PageFault(vpn, False, "not present")
        opn = overlay_page_number(asid, vpn)
        omt_entry = self.controller.omt.lookup(opn)
        if (pte.overlays_enabled and omt_entry is not None
                and omt_entry.obitvector.is_set(line)):
            cached = self.hierarchy.lookup_data(line_tag_of(opn, line))
            if cached is not None:
                return cached
            segment = omt_entry.segment
            if segment is not None and segment.has_line(line):
                return segment.read_line(line)
            return ZERO_LINE
        cached = self.hierarchy.lookup_data(line_tag_of(pte.ppn, line))
        if cached is not None:
            return cached
        return self.main_memory.read_line(pte.ppn, line)

    def page_bytes(self, asid: int, vpn: int) -> bytes:
        """The 4KB a process observes at *vpn* (overlay over physical)."""
        return b"".join(self.line_bytes(asid, vpn, line)
                        for line in range(LINES_PER_PAGE))

    # -- DRAM page copy (used by promotion and the CoW baseline) --------------------

    def copy_page_via_dram(self, src_ppn: int, dst_ppn: int,
                           now: Optional[int] = None) -> int:
        """Copy a 4KB frame line by line through DRAM; returns the latency.

        Models the baseline copy-on-write page copy: 64 line reads and 64
        line writes with whatever bank-level parallelism DRAM offers.  The
        returned latency is the completion time of the slowest line.
        """
        start = self.clock if now is None else now
        finish = start
        for line in range(LINES_PER_PAGE):
            src = line_tag_of(src_ppn, line) * LINE_SIZE
            dst = line_tag_of(dst_ppn, line) * LINE_SIZE
            read_done = start + self.dram.read(src, start)
            write_latency = self.dram.write(dst, read_done)
            finish = max(finish, read_done + write_latency)
        self.main_memory.copy_page(src_ppn, dst_ppn)
        self._drop_cached_frame(dst_ppn)
        return finish - start

    def _drop_cached_frame(self, ppn: int) -> None:
        """Drop every cached line of frame *ppn*, without writeback.

        For copies that rewrite a whole frame behind the caches: any
        cached line of it is stale (the prefetcher can leave a
        zero-filled line of a not-yet-allocated frame in the L3).
        """
        for line in range(LINES_PER_PAGE):
            self.hierarchy.invalidate(line_tag_of(ppn, line),
                                      writeback=False)

    def copy_page_via_cache(self, src_ppn: int, dst_ppn: int,
                            now: Optional[int] = None) -> int:
        """Copy a 4KB frame with CPU loads/stores through the hierarchy.

        This is what the OS's page copy actually does, and it captures
        both sides of the paper's Section 5.1 analysis: the copy fetches
        the whole page with high memory-level parallelism (good when the
        application will soon write most of its lines back-to-back, e.g.
        cactus), but it pollutes the L1 with all 64 lines and doubles the
        write bandwidth when the application updates lines spread out in
        time.  Latency is the completion time of the slowest line, since
        the copy loop's iterations are independent.
        """
        start = self.clock if now is None else now
        finish = start
        issue = start
        hierarchy = self.hierarchy
        access = hierarchy.access
        l1_where, l1_data = hierarchy.l1._where, hierarchy.l1._data
        # The destination frame, looked up once: a writeback of one of
        # its lines during the copy stores into this same list.
        dst_frame = self.main_memory._frame(dst_ppn)
        src_base = line_tag_of(src_ppn, 0)
        dst_base = line_tag_of(dst_ppn, 0)
        for line in range(LINES_PER_PAGE):
            src_tag = src_base + line
            read = access(src_tag, False, None, issue)
            # The load has just filled the source line into the L1
            # (its slot read inline).
            slot = l1_where.get(src_tag)
            data = ((slot is not None and l1_data[slot])
                    or hierarchy.lookup_data(src_tag)
                    or self.main_memory.read_line(src_ppn, line))
            done = issue + read + access(dst_base + line, True, data, issue)
            # Keep the destination frame in sync line by line: the copy
            # must carry dirty cached source data, never the (possibly
            # stale) source frame.  A cached line is already one
            # immutable 64-byte object, so it is stored as it is.
            dst_frame[line] = data
            if done > finish:
                finish = done
            issue += 2  # one load + one store issued per two cycles
        return finish - start

    # -- promotion (Section 4.3.4) ----------------------------------------------------

    def promote(self, asid: int, vpn: int, action: str,
                new_ppn: Optional[int] = None) -> int:
        """Convert an overlay back to a regular physical page.

        ``copy-and-commit`` merges physical + overlay data into *new_ppn*
        and remaps the page there (overlay-on-write's promotion).
        ``commit`` folds the overlay lines into the existing physical page
        (successful speculation, checkpoint epochs).  ``discard`` throws
        the overlay away (failed speculation).  Returns the latency; the
        OS decides whether it lands on anyone's critical path.
        """
        if action not in PROMOTE_ACTIONS:
            raise ValueError(f"unknown promotion action {action!r}")
        table = self.page_tables[asid]
        pte = table.entry(vpn)
        if pte is None:
            raise PageFault(vpn, False, "not present")
        opn = overlay_page_number(asid, vpn)
        omt_entry = self.controller.omt.lookup(opn)
        overlay_lines = (list(omt_entry.obitvector.lines())
                         if omt_entry is not None else [])
        latency = 0

        if action == "copy-and-commit":
            if new_ppn is None:
                raise ValueError("copy-and-commit requires a destination frame")
            merged = b"".join(self.line_bytes(asid, vpn, line)
                              for line in range(LINES_PER_PAGE))
            self.main_memory.write_page(new_ppn, merged)
            self._drop_cached_frame(new_ppn)
            for line in range(LINES_PER_PAGE):
                latency = max(latency, self.dram.write(
                    line_tag_of(new_ppn, line) * LINE_SIZE, self.clock))
            table.update(vpn, ppn=new_ppn, cow=False, writable=True)
            latency += self.coherence.shootdown(asid, vpn)
        elif action == "commit":
            for line in overlay_lines:
                data = self.line_bytes(asid, vpn, line)
                self.main_memory.write_line(pte.ppn, line, data)
                latency = max(latency, self.dram.write(
                    line_tag_of(pte.ppn, line) * LINE_SIZE, self.clock))
                self.hierarchy.invalidate(line_tag_of(pte.ppn, line),
                                          writeback=False)

        for line in overlay_lines:
            self.hierarchy.invalidate(line_tag_of(opn, line), writeback=False)
        latency += self.coherence.broadcast_commit(opn, omt_entry)
        self.controller.drop_overlay(opn)
        self.stats.promotions[action] += 1
        return latency

    # -- capacity accounting -------------------------------------------------------

    @property
    def overlay_memory_allocated(self) -> int:
        """Main-memory bytes held by live overlay segments."""
        return self.oms.allocated_bytes

    def overlay_line_count(self, asid: int, vpn: int) -> int:
        entry = self.controller.omt.lookup(overlay_page_number(asid, vpn))
        return entry.obitvector.count() if entry is not None else 0
