"""A minimal OS kernel over the overlay hardware: process and memory
management, ``fork``, and the frame bookkeeping both copy-on-write and
overlay-on-write experiments rely on.

The kernel owns the physical frame pool (including the pages it
proactively grants the memory controller for the Overlay Memory Store —
Section 4.4.3) so "memory consumed" is a single number regardless of
which copy-on-write policy runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from .physalloc import FrameAllocator
from .process import Process
from ..core.address import (PAGE_SIZE, VIRTUAL_ADDRESS_BITS,
                            overlay_page_number)
from ..core.framework import CowHandler, OverlaySystem

#: Bits of a virtual page number: ``frame_users`` names the mapping of
#: page ``vpn`` in address space ``asid`` by the one int
#: ``asid << VPN_BITS | vpn``.
VPN_BITS = VIRTUAL_ADDRESS_BITS - (PAGE_SIZE - 1).bit_length()


@dataclass
class KernelStats:
    forks: int = 0
    pages_shared_on_fork: int = 0
    cow_breaks: int = 0
    degradations: int = 0
    pages_rescued_on_degradation: int = 0


class Kernel:
    """Process + memory management over an :class:`OverlaySystem`."""

    def __init__(self, system: Optional[OverlaySystem] = None,
                 total_frames: int = 1 << 20, num_cores: int = 1,
                 oms_initial_pages: int = 16,
                 oms_page_per_overlay: bool = False, config=None):
        self.allocator = allocator = FrameAllocator(total_frames=total_frames)

        def grant_oms_pages(count: int) -> List[int]:
            """OS handing 4KB pages to the memory controller for the OMS;
            it closes over the allocator, not the kernel, so the machine
            holds no reference back to its kernel."""
            return [allocator.allocate() * PAGE_SIZE for _ in range(count)]

        if system is None:
            system = OverlaySystem(
                num_cores=num_cores,
                oms_request_pages=grant_oms_pages,
                oms_initial_pages=oms_initial_pages,
                oms_page_per_overlay=oms_page_per_overlay,
                config=config)
        self.system = system
        self.processes: Dict[int, Process] = {}
        #: ppn -> the mappings of that frame, each ``asid << VPN_BITS | vpn``:
        #: the frame's reference count is the size of its set, and the
        #: frame is freed when the set empties.
        self.frame_users: Dict[int, Set[int]] = {}
        self._next_pid = 1
        self.stats = KernelStats()

    # -- policy installation -------------------------------------------------------

    def install_cow_policy(self, handler: CowHandler) -> None:
        """Choose what happens on a write to a copy-on-write page."""
        self.system.cow_handler = handler

    # -- process lifecycle -----------------------------------------------------------

    def create_process(self) -> Process:
        pid = self._next_pid
        self._next_pid += 1
        table = self.system.register_address_space(pid)
        process = Process(pid=pid, asid=pid, page_table=table)
        self.processes[pid] = process
        return process

    def mmap(self, process: Process, start_vpn: int, npages: int,
             fill: Optional[bytes] = None) -> List[int]:
        """Map *npages* fresh anonymous pages at *start_vpn*.

        ``fill`` optionally initialises every page's contents (repeated
        and truncated to 4KB).
        """
        page = (None if fill is None else
                (fill * (PAGE_SIZE // max(1, len(fill)) + 1))[:PAGE_SIZE])
        frames = []
        table = process.page_table
        asid_key = process.asid << VPN_BITS
        for i in range(npages):
            vpn = start_vpn + i
            if table.entry(vpn) is not None:
                raise ValueError(f"VPN {vpn:#x} already mapped in pid {process.pid}")
            ppn = self.allocator.allocate()
            self.system.map_page(process.asid, vpn, ppn)
            self.frame_users[ppn] = {asid_key | vpn}
            if page is not None:
                self.system.main_memory.write_page(ppn, page)
            frames.append(ppn)
        return frames

    def map_shared(self, process: Process, vpns: Sequence[int], ppn: int, *,
                   writable: bool = False, cow: bool = True) -> None:
        """Map every VPN in *vpns* to the one allocated frame *ppn*.

        The overlay sparse matrix maps its whole dense layout to a
        single zero page this way (Section 5.2).  As after a fork, each
        mapping is one user of the frame.
        """
        if not vpns:
            return
        table = process.page_table
        asid_key = process.asid << VPN_BITS
        new_users = {asid_key | vpn for vpn in vpns}
        clash = [vpn for vpn in table.mapped_vpns()
                 if asid_key | vpn in new_users]
        if clash:
            raise ValueError(f"VPN {min(clash):#x} already mapped in "
                             f"pid {process.pid}")
        table.map_shared(vpns, ppn, writable=writable, cow=cow,
                         overlays_enabled=self.system.overlays_enabled)
        users = self.frame_users.setdefault(ppn, new_users)
        if users is not new_users:
            users |= new_users

    def map_data(self, process: Process, start_vpn: int, raw: bytes) -> int:
        """Map fresh pages at *start_vpn* holding *raw*; returns their count.

        The last page is zero-padded.
        """
        raw += bytes(-len(raw) % PAGE_SIZE)
        frames = self.mmap(process, start_vpn, len(raw) // PAGE_SIZE)
        write_page = self.system.main_memory.write_page
        for index, ppn in enumerate(frames):
            write_page(ppn, raw[index * PAGE_SIZE:(index + 1) * PAGE_SIZE])
        return len(frames)

    def munmap(self, process: Process, start_vpn: int, npages: int) -> None:
        table = process.page_table
        asid_key = process.asid << VPN_BITS
        for vpn in range(start_vpn, start_vpn + npages):
            pte = table.entry(vpn)
            if pte is not None:
                table.unmap(vpn)
                self._drop_user(pte.ppn, asid_key | vpn)

    def exit_process(  # simlint: disable=SL007 process lifecycle API
            self, process: Process) -> None:
        for vpn in sorted(process.page_table.mapped_vpns()):
            self.munmap(process, vpn, 1)
        self.processes.pop(process.pid, None)

    # -- fork (Section 5.1) -------------------------------------------------------------

    def fork(self, parent: Process) -> Process:
        """Create a child sharing every page copy-on-write.

        Both the parent's and the child's PTEs are marked ``cow`` and
        write-protected; stale TLB entries for the parent are flushed
        (``update_mapping`` shoots them down), exactly as a real fork
        must.  Because no two virtual pages may share an overlay
        (Section 4.1: "when data of a virtual page is copied to another
        virtual page, the overlay cache lines of the source page must be
        copied into the appropriate locations in the destination page"),
        any overlay lines the parent has accumulated are copied into the
        child's own overlay.
        """
        child = self.create_process()
        child_key = child.asid << VPN_BITS
        table = parent.page_table
        for vpn in table.mapped_vpns():
            ppn = table.entry(vpn).ppn
            self.system.map_page(child.asid, vpn, ppn, writable=False, cow=True)
            self.system.update_mapping(parent.asid, vpn,
                                       writable=False, cow=True)
            self.frame_users[ppn].add(child_key | vpn)
            self.stats.pages_shared_on_fork += 1
            self._copy_overlay_lines(parent.asid, child.asid, vpn)
        self.stats.forks += 1
        return child

    def _copy_overlay_lines(self, src_asid: int, dst_asid: int,
                            vpn: int) -> None:
        """Copy the source page's overlay lines into the destination's
        overlay (overlays are never shared — Section 4.1)."""
        entry = self.system.controller.omt.lookup(
            overlay_page_number(src_asid, vpn))
        if entry is None or entry.obitvector.is_empty():
            return
        for line in entry.obitvector.lines():
            data = self.system.line_bytes(src_asid, vpn, line)
            self.system.install_overlay_line(dst_asid, vpn, line, data)

    # -- graceful degradation (repro.robust) -----------------------------------------------

    def degrade_to_full_page_cow(  # simlint: disable=SL007 recovery API
            self) -> int:
        """Retire the overlay subsystem and fall back to full-page CoW.

        The recovery of last resort: when fault detection concludes the
        overlay hardware can no longer be trusted (repeated uncorrectable
        mapping corruption), the kernel rescues every page that still has
        overlay lines by promoting it ``copy-and-commit`` onto a fresh
        frame — merging through :meth:`OverlaySystem.line_bytes`, which
        still honours the (recovered) OMT state — then disables overlays
        on every existing PTE and on the system, and installs the classic
        full-page :class:`~repro.osmodel.cow.CopyOnWritePolicy` so future
        CoW writes take the baseline path.  Returns the total latency
        charged (promotions plus the shootdowns the PTE edits imply).
        """
        from .cow import CopyOnWritePolicy
        self.system.mark_overlay_faulted()
        latency = 0
        for process in list(self.processes.values()):
            table = process.page_table
            for vpn in sorted(table.mapped_vpns()):
                if not self.system.overlay_line_count(process.asid, vpn):
                    continue
                old_ppn = table.entry(vpn).ppn
                new_ppn = self.allocator.allocate()
                latency += self.system.promote(process.asid, vpn,
                                               "copy-and-commit",
                                               new_ppn=new_ppn)
                self.move_mapping(process.asid, vpn, old_ppn, new_ppn)
                self.stats.pages_rescued_on_degradation += 1
        self.system.overlays_enabled = False
        for process in self.processes.values():
            for vpn in process.page_table.mapped_vpns():
                self.system.update_mapping(process.asid, vpn,
                                           overlays_enabled=False)
                latency += self.system.coherence.shootdown_latency
        self.install_cow_policy(CopyOnWritePolicy(self))
        self.stats.degradations += 1
        return latency

    # -- moving a mapping between frames ---------------------------------------------------

    def note_cow_copy(self, asid: int, vpn: int, old_ppn: int,
                      new_ppn: int) -> None:
        """Record that (*asid*, *vpn*) broke its CoW share onto *new_ppn*."""
        self.stats.cow_breaks += 1
        self.move_mapping(asid, vpn, old_ppn, new_ppn)

    def move_mapping(self, asid: int, vpn: int, old_ppn: int,
                     new_ppn: int) -> int:
        """Move (*asid*, *vpn*) from *old_ppn*'s users to *new_ppn*'s.

        Called once the PTE points at *new_ppn*, which the caller has
        allocated or which other mappings already use; returns the
        mappings *old_ppn* keeps.  A CoW copy, a promotion and a
        deduplicating remap all end here.
        """
        key = asid << VPN_BITS | vpn
        remaining = self._drop_user(old_ppn, key)
        self.frame_users.setdefault(new_ppn, set()).add(key)
        return remaining

    def _drop_user(self, ppn: int, key: int) -> int:
        """Remove mapping *key* from *ppn*'s users; returns how many remain.

        The frame is freed with its last mapping.  A sole remaining
        copy-on-write mapping loses its protection lazily, so its next
        write stores in place instead of copying a frame nobody shares.
        """
        users = self.frame_users[ppn]
        users.remove(key)
        if not users:
            del self.frame_users[ppn]
            self.allocator.free(ppn)
        elif len(users) == 1:
            sole_asid, sole_vpn = divmod(next(iter(users)), 1 << VPN_BITS)
            if self.system.page_tables[sole_asid].entry(sole_vpn).cow:
                self.system.update_mapping(sole_asid, sole_vpn,
                                           cow=False, writable=True)
        return len(users)

    # -- memory accounting (Figure 8's metric) -------------------------------------------

    def memory_marker(self) -> int:
        """Snapshot of bytes in use (frames, incl. OMS-granted pages)."""
        return self.allocator.bytes_in_use

    def additional_memory_since(self, marker: int) -> int:
        return self.allocator.bytes_in_use - marker
