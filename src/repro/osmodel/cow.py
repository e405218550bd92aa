"""The copy-on-write baseline (Section 2.2, Figure 3a).

On the first write to a shared page the OS (Ê) allocates a new frame and
copies the whole 4KB through DRAM, then (Ë) remaps the faulting virtual
page to the new frame, which requires a TLB shootdown.  Both steps sit on
the critical path of the faulting store — precisely the inefficiency
overlay-on-write removes.

The policy object plugs into :attr:`repro.core.OverlaySystem.cow_handler`
so the baseline and overlay-on-write run on an otherwise identical
machine.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from ..core.framework import OverlaySystem
from ..core.tlb import TLBEntry
from ..core.address import page_number


@dataclass
class CowStats:
    page_copies: int = 0
    bytes_copied: int = 0
    copy_cycles: int = 0
    shootdown_cycles: int = 0


class CopyOnWritePolicy:
    """Baseline policy: copy the page, remap, shoot down, then store.

    The policy is installed in its kernel's machine, so it holds the
    kernel through a weak proxy: the caller keeps the kernel alive while
    the machine runs, and a finished machine is freed without the cyclic
    garbage collector.
    """

    def __init__(self, kernel):
        self.kernel = weakref.proxy(kernel)
        self.stats = CowStats()

    def __call__(self, system: OverlaySystem, asid: int, vaddr: int,
                 chunk: bytes, core: int, entry: TLBEntry) -> int:
        vpn = page_number(vaddr)
        old_ppn = entry.pte.ppn

        # The write traps into the kernel's fault handler: the pipeline is
        # flushed and nothing overlaps the handler's work.
        system.note_serializing_event()

        # Ê Allocate and copy the full physical page (on the critical path).
        new_ppn = self.kernel.allocator.allocate()
        copy_latency = system.copy_page_via_cache(old_ppn, new_ppn,
                                                  now=system.clock)
        self.stats.page_copies += 1
        self.stats.bytes_copied += 4096
        self.stats.copy_cycles += copy_latency

        # Ë Remap the faulting page and shoot down stale TLB entries.
        system.update_mapping(asid, vpn, ppn=new_ppn, cow=False, writable=True)
        shootdown_latency = system.coherence.shootdown(asid, vpn)
        self.stats.shootdown_cycles += shootdown_latency

        self.kernel.note_cow_copy(asid, vpn, old_ppn, new_ppn)

        # Finally the store proceeds on the private copy (fresh TLB fill).
        store_latency = system.write(asid, vaddr, chunk, core=core)
        return copy_latency + shootdown_latency + store_latency
