"""Hierarchical page tables with copy-on-write and overlay control bits.

The overlay framework deliberately leaves the virtual-to-physical mapping
path of the existing virtual memory system untouched (Section 3.3); this
module is therefore a conventional 4-level x86-64-style page table, plus
the two bits the paper adds to each PTE:

* ``cow`` — the OS marks pages shared in copy-on-write mode so the
  hardware knows a write must trigger either a page copy (baseline) or an
  overlaying write (Section 2.2: "the OS explicitly indicates to the
  hardware, through the page tables, that the pages should be
  copied-on-write").
* ``overlays_enabled`` — overlays are a feature that can be turned on or
  off per mapping (Section 1: backward compatibility).

Super-page mappings at the PD level (2MB) are supported so the flexible
super-page technique (Section 5.3.5) has a substrate to build on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Optional, Tuple


#: Levels of the hierarchical table (PML4, PDPT, PD, PT).
PAGE_TABLE_LEVELS = 4

#: Number of 4KB pages covered by one 2MB super-page PTE.
SUPERPAGE_SPAN = 512


class PageTableError(RuntimeError):
    """Raised on invalid page-table operations."""


class PageFault(PageTableError):
    """Raised when a translation does not exist or permission is denied."""

    def __init__(self, vpn: int, write: bool, reason: str):
        super().__init__(f"page fault at VPN {vpn:#x} ({'write' if write else 'read'}): {reason}")
        self.vpn = vpn
        self.write = write
        self.reason = reason


@dataclass(frozen=True)
class PTE:
    """A page-table entry (frozen: updates go through the table)."""

    ppn: int
    present: bool = True
    writable: bool = True
    cow: bool = False
    overlays_enabled: bool = True
    superpage: bool = False

    def with_flags(self, **changes) -> "PTE":
        # Direct construction — dataclasses.replace() re-derives the
        # field list on every call, and fork marks every mapping CoW.
        return PTE(
            ppn=changes.get("ppn", self.ppn),
            present=changes.get("present", self.present),
            writable=changes.get("writable", self.writable),
            cow=changes.get("cow", self.cow),
            overlays_enabled=changes.get("overlays_enabled",
                                         self.overlays_enabled),
            superpage=changes.get("superpage", self.superpage))


@dataclass
class PageTableStats:
    walks: int = 0
    walk_memory_accesses: int = 0
    faults: int = 0


@dataclass
class PageTable:
    """One process's hierarchical page table.

    Mappings are stored flat (VPN -> PTE) for speed; walk cost is charged
    per lookup to model the 4-level traversal.  Super-pages are stored by
    their aligned base VPN and matched by range.
    """

    asid: int
    stats: PageTableStats = field(default_factory=PageTableStats)
    _entries: Dict[int, PTE] = field(default_factory=dict)
    _superpages: Dict[int, PTE] = field(default_factory=dict)

    # -- mapping management (OS side) --------------------------------------

    def map(self, vpn: int, ppn: int, *, writable: bool = True,
            cow: bool = False, overlays_enabled: bool = True) -> PTE:
        """Install a 4KB mapping from *vpn* to *ppn*."""
        pte = PTE(ppn=ppn, writable=writable, cow=cow,
                  overlays_enabled=overlays_enabled)
        self._entries[vpn] = pte
        return pte

    def map_shared(self, vpns: Iterable[int], ppn: int, *, writable: bool,
                   cow: bool, overlays_enabled: bool) -> PTE:
        """Map every VPN in *vpns* to the one frame *ppn*.

        A PTE is frozen, so a single entry serves every VPN: the result
        equals one :meth:`map` call per VPN with the same flags.
        """
        pte = PTE(ppn=ppn, writable=writable, cow=cow,
                  overlays_enabled=overlays_enabled)
        self._entries.update(dict.fromkeys(vpns, pte))
        return pte

    def map_superpage(self, base_vpn: int, base_ppn: int, *,
                      writable: bool = True, cow: bool = False,
                      overlays_enabled: bool = True) -> PTE:
        """Install a 2MB super-page mapping (Section 5.3.5 substrate)."""
        if base_vpn % SUPERPAGE_SPAN or base_ppn % SUPERPAGE_SPAN:
            raise PageTableError("super-page base must be 2MB-aligned")
        pte = PTE(ppn=base_ppn, writable=writable, cow=cow,
                  overlays_enabled=overlays_enabled, superpage=True)
        self._superpages[base_vpn] = pte
        return pte

    def unmap(self, vpn: int) -> None:
        if self._entries.pop(vpn, None) is None:
            raise PageTableError(f"VPN {vpn:#x} is not mapped")

    def update(self, vpn: int, **flag_changes) -> PTE:
        """Update flags (or ppn) of an existing 4KB mapping."""
        pte = self._entries.get(vpn)
        if pte is None:
            raise PageTableError(f"VPN {vpn:#x} is not mapped")
        pte = pte.with_flags(**flag_changes)
        self._entries[vpn] = pte
        return pte

    def entry(self, vpn: int) -> Optional[PTE]:
        """Return the PTE covering *vpn* without charging a walk.

        For a super-page the returned PTE's ppn is adjusted to the frame
        backing *vpn* (matching :meth:`walk`).
        """
        pte = self._entries.get(vpn)
        if pte is not None:
            return pte
        base = vpn - (vpn % SUPERPAGE_SPAN)
        pte = self._superpages.get(base)
        if pte is None:
            return None
        return pte.with_flags(ppn=pte.ppn + (vpn - base))

    def superpage_entry(self, base_vpn: int) -> Optional[PTE]:
        return self._superpages.get(base_vpn)

    def mapped_vpns(self) -> Iterator[int]:
        yield from self._entries
        for base in self._superpages:
            yield from range(base, base + SUPERPAGE_SPAN)

    def __len__(self) -> int:
        return len(self._entries) + len(self._superpages) * SUPERPAGE_SPAN

    # -- hardware walk (MMU side) ------------------------------------------

    def walk(self, vpn: int, write: bool = False) -> Tuple[PTE, int]:
        """Translate *vpn*, returning ``(pte, memory_accesses)``.

        Raises :class:`PageFault` on a missing or permission-violating
        translation.  A CoW page is *not* a fault at walk time — the fault
        is raised by the access path so the OS (or the overlay hardware)
        can intervene; here we only refuse writes to read-only,
        non-CoW pages.
        """
        self.stats.walks += 1
        pte = self._entries.get(vpn)
        accesses = PAGE_TABLE_LEVELS
        if pte is None:
            base = vpn - (vpn % SUPERPAGE_SPAN)
            pte = self._superpages.get(base)
            accesses = PAGE_TABLE_LEVELS - 1  # super-page walk stops at the PD
            if pte is not None:
                pte = pte.with_flags(ppn=pte.ppn + (vpn - base))
        self.stats.walk_memory_accesses += accesses
        if pte is None or not pte.present:
            self.stats.faults += 1
            raise PageFault(vpn, write, "not present")
        if write and not pte.writable and not pte.cow:
            self.stats.faults += 1
            raise PageFault(vpn, write, "write to read-only page")
        return pte, accesses
