"""Technique 1: overlay-on-write (Sections 2.2 and 5.1).

When a write hits a copy-on-write page, instead of copying the whole 4KB
frame the hardware creates an overlay holding just the modified cache
line.  Benefits over copy-on-write (Table 1): no page copy on the
critical path, no TLB shootdown (a single *overlaying read exclusive*
message suffices), and memory is consumed one cache line at a time,
lazily, on dirty-line eviction.

:class:`OverlayOnWritePolicy` is the pluggable CoW policy.  Beyond the
framework's raw overlaying write it adds the OS-level promotion policy of
Section 4.3.4: once most of a page's lines live in the overlay, keeping
the overlay no longer helps, so the page is promoted with
*copy-and-commit* into a fresh frame.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from ..core.address import LINES_PER_PAGE, page_number
from ..core.framework import OverlaySystem
from ..core.tlb import TLBEntry


@dataclass
class OverlayOnWriteStats:
    overlaying_writes: int = 0
    promotions: int = 0


class OverlayOnWritePolicy:
    """CoW policy that creates per-line overlays, with optional promotion.

    Parameters
    ----------
    kernel:
        The OS kernel (frame allocation for promotions, CoW bookkeeping),
        held through a weak proxy as
        :class:`~repro.osmodel.cow.CopyOnWritePolicy` holds it.
    promote_threshold:
        When an overlay reaches this many lines the page is promoted via
        copy-and-commit into a private frame (None disables promotion;
        the paper notes promotion is worthwhile once "most of the cache
        lines within a virtual page are modified").
    """

    def __init__(self, kernel=None, promote_threshold=None):
        if promote_threshold is not None and not 1 <= promote_threshold <= LINES_PER_PAGE:
            raise ValueError("promote threshold must be within 1..64")
        self.kernel = None if kernel is None else weakref.proxy(kernel)
        self.promote_threshold = promote_threshold
        self.stats = OverlayOnWriteStats()

    def __call__(self, system: OverlaySystem, asid: int, vaddr: int,
                 chunk: bytes, core: int, entry: TLBEntry) -> int:
        latency = system.overlaying_write(asid, vaddr, chunk, core=core,
                                          entry=entry)
        self.stats.overlaying_writes += 1
        if self.promote_threshold is not None and self.kernel is not None:
            vpn = page_number(vaddr)
            if system.overlay_line_count(asid, vpn) >= self.promote_threshold:
                latency += self._promote(system, asid, vpn, entry.pte.ppn)
        return latency

    def _promote(self, system: OverlaySystem, asid: int, vpn: int,
                 old_ppn: int) -> int:
        """Copy-and-commit the dense overlay into a private frame."""
        new_ppn = self.kernel.allocator.allocate()
        latency = system.promote(asid, vpn, "copy-and-commit", new_ppn=new_ppn)
        self.kernel.note_cow_copy(asid, vpn, old_ppn, new_ppn)
        self.stats.promotions += 1
        return latency
