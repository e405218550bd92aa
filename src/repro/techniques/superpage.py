"""Technique 7: flexible super-pages (Section 5.3.5).

Super-pages cut TLB misses but force all-or-nothing management: to our
knowledge (the paper's), no system shares a 2MB super-page
copy-on-write, because one write would either copy 2MB or shatter the
mapping into 512 base PTEs.  Applying overlays *at the PD level* fixes
this: the super-page's OBitVector has one bit per 32KB segment (512
pages / 64 bits = 8 pages per bit), and a written segment is remapped to
the overlay — copying 8 pages instead of 512 — while the rest of the
super-page keeps its single TLB entry.

:class:`SuperpageManager` simulates the overlay scheme.  The two
baselines it is compared with are arithmetic, not simulated: a full copy
copies all ``SUPERPAGE_SPAN`` pages of the super-page, and shattering
replaces its one PD entry with ``SUPERPAGE_SPAN`` base PTEs.  The
paper's per-segment protection domains are not modelled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..core.obitvector import OBitVector
from ..core.page_table import SUPERPAGE_SPAN

#: 4KB pages covered by one bit of a super-page OBitVector.
PAGES_PER_SEGMENT = SUPERPAGE_SPAN // OBitVector.WIDTH  # 8 pages = 32KB


@dataclass
class SuperpageStats:
    superpages_shared: int = 0
    segment_copies: int = 0
    pages_copied: int = 0


@dataclass
class _SharedSuperpage:
    base_vpn: int
    base_ppn: int
    #: per-sharer segment overlay state: asid -> OBitVector of the
    #: segments already remapped to that sharer's private frames
    overlays: Dict[int, OBitVector] = field(default_factory=dict)


class SuperpageManager:
    """Super-page sharing with segment-granularity overlays."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.stats = SuperpageStats()
        self._shared: Dict[Tuple[int, int], _SharedSuperpage] = {}

    # -- setup --------------------------------------------------------------------

    def map_superpage(self, process, base_vpn: int) -> int:
        """Allocate 512 contiguous frames and map them as one super-page."""
        if base_vpn % SUPERPAGE_SPAN:
            raise ValueError("super-page base must be 2MB-aligned")
        # A super-page needs a physically contiguous, 2MB-aligned frame run.
        frames = self.kernel.allocator.allocate_contiguous(
            SUPERPAGE_SPAN, align=SUPERPAGE_SPAN)
        base_ppn = frames[0]
        process.page_table.map_superpage(base_vpn, base_ppn)
        return base_ppn

    def share_cow(self, parent, child, base_vpn: int) -> _SharedSuperpage:
        """Share parent's super-page with *child*, copy-on-write — the
        mapping the paper says no existing system supports."""
        pte = parent.page_table.superpage_entry(base_vpn)
        if pte is None:
            raise KeyError(f"no super-page at VPN {base_vpn:#x}")
        child.page_table.map_superpage(base_vpn, pte.ppn, writable=False,
                                       cow=True)
        parent.page_table.map_superpage(base_vpn, pte.ppn, writable=False,
                                        cow=True)
        shared = _SharedSuperpage(base_vpn=base_vpn, base_ppn=pte.ppn)
        self._shared[(child.asid, base_vpn)] = shared
        self._shared[(parent.asid, base_vpn)] = shared
        self.stats.superpages_shared += 1
        return shared

    # -- the overlay write path ------------------------------------------------------

    def segment_of(self, vpn_offset: int) -> int:
        return vpn_offset // PAGES_PER_SEGMENT

    def write_page(self, process, vpn: int) -> int:
        """A write to page *vpn* of a shared super-page: copy only the
        32KB segment into the overlay.  Returns pages copied (0 when the
        segment was already private)."""
        base_vpn = vpn - (vpn % SUPERPAGE_SPAN)
        shared = self._shared.get((process.asid, base_vpn))
        if shared is None:
            raise KeyError(f"super-page at {base_vpn:#x} is not shared")
        vector = shared.overlays.setdefault(process.asid, OBitVector())
        segment = self.segment_of(vpn - base_vpn)
        if vector.is_set(segment):
            return 0  # segment already remapped to this sharer's overlay
        first_page = base_vpn + segment * PAGES_PER_SEGMENT
        for i in range(PAGES_PER_SEGMENT):
            src_ppn = shared.base_ppn + segment * PAGES_PER_SEGMENT + i
            dst_ppn = self.kernel.allocator.allocate()
            self.kernel.system.copy_page_via_dram(src_ppn, dst_ppn)
            # Install a base-page PTE that overrides the super-page
            # mapping for this page (the "overlay at the PD level"): the
            # hardware walk now resolves these 8 pages privately while
            # the rest of the 2MB region keeps its single PD entry.
            process.page_table.map(first_page + i, dst_ppn,
                                   writable=True, cow=False)
        self.kernel.system.coherence.shootdown(process.asid, first_page)
        vector.set(segment)
        self.stats.segment_copies += 1
        self.stats.pages_copied += PAGES_PER_SEGMENT
        return PAGES_PER_SEGMENT
