"""Architectural invariant checking over a live :class:`OverlaySystem`.

The detector half of the robustness layer: while the fault injector
(:mod:`repro.robust.faults`) breaks the machine, the
:class:`InvariantChecker` sweeps the architectural state the paper's
correctness argument rests on and reports every rule it finds violated.
The four rules, each traceable to the paper:

``overlay-exclusivity``
    Section 4.1's fundamental rule — a cache line's authoritative data
    lives in the overlay *or* the physical page, never both.  Violated
    when the OMT maps a line to the overlay while a *dirty* physical
    copy is still cached (a store landed on pre-remap data), and in the
    dual direction when a line is dirty under the overlay tag without
    its OMT bit (its data became unreachable — a dropped *overlaying
    read exclusive*).  Clean copies under the wrong tag are tolerated:
    the prefetcher and copy-on-write frame sharers create them
    legitimately, and reads never consume them.

``omt-page-table``
    Sections 4.2/4.3 — the OMT shadows the page table.  Violated by an
    OMT entry whose page is not mapped (or has overlays disabled) while
    it still claims overlay lines, by a set OBitVector bit with no
    backing data anywhere — no cached overlay line and no segment slot —
    which would read as fabricated zeroes, and by a segment line whose
    bit is clear, unless the entry is shadow memory (Section 5.3.4),
    whose bits stay clear by design.

``tlb-coherence``
    Section 4.3.3 — every TLB's private OBitVector copy must equal the
    authoritative OMT vector once the coherence messages have done their
    job (the whole point of the *overlaying read exclusive* message).

``oms-free-list``
    Section 4.4.3 — the Overlay Memory Store's segmented free store:
    no base on two free lists, no free range overlapping a live
    segment, and every live segment's slot pointers internally
    consistent (pointer in range, pointing at a populated slot, no two
    lines sharing a slot).

Violations are reported three ways: the returned :class:`Violation`
list, ``invariants.*`` counters in the system's stats tree (the checker
is a :class:`~repro.engine.Component` child of the system), and
``robust``-category trace events when a tracer is armed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Any, Dict, List, Optional, Tuple

from ..core.address import (LINES_PER_PAGE, decompose_overlay_address,
                            line_tag_of, overlay_page_number, page_address)
from ..engine.component import Component

#: The rule identifiers, in sweep order.
RULES = ("overlay-exclusivity", "omt-page-table", "tlb-coherence",
         "oms-free-list")


@dataclass(frozen=True)
class Violation:
    """One invariant breach at one location."""

    rule: str
    location: str
    detail: str

    def to_dict(self) -> Dict[str, str]:
        return {"rule": self.rule, "location": self.location,
                "detail": self.detail}


@dataclass
class InvariantStats:
    checks: int = 0
    violations: int = 0
    overlay_exclusivity_violations: int = 0
    omt_page_table_violations: int = 0
    tlb_coherence_violations: int = 0
    oms_free_list_violations: int = 0
    repairs: int = 0


class InvariantChecker(Component):
    """Periodic whole-machine consistency sweep.

    ``check_interval`` is the cadence in simulated cycles for
    :meth:`maybe_check`: a sweep runs when at least that many cycles
    passed since the previous one (0 = sweep on every call).  Checks
    read state through uncharged paths only — a sweep never moves the
    simulated clock or perturbs any timing statistic, so arming the
    checker cannot change a run's performance results.
    """

    def __init__(self, system, check_interval: int = 0,
                 name: str = "invariants"):
        super().__init__(name, parent=system)
        if check_interval < 0:
            raise ValueError("check interval cannot be negative")
        self.system = system
        self.check_interval = check_interval
        self.stats = InvariantStats()
        self.stats_scope.own_block(self.stats)
        self._last_check: Optional[int] = None

    # -- cadence -------------------------------------------------------------

    def maybe_check(self) -> List[Violation]:
        """Sweep if the configured cadence has elapsed (else no-op)."""
        now = self.system.clock
        if (self._last_check is not None
                and now - self._last_check < self.check_interval):
            return []
        return self.check_all()

    def check_all(self) -> List[Violation]:
        """Run every rule; record, trace and return the violations."""
        self._last_check = self.system.clock
        self.stats.checks += 1
        violations: List[Violation] = []
        violations += self.check_overlay_exclusivity()
        violations += self.check_omt_page_table()
        violations += self.check_tlb_coherence()
        violations += self.check_oms_free_lists()
        for violation in violations:
            self.trace_event("robust", "violation", violation.to_dict())
        return violations

    # -- the four rules ------------------------------------------------------

    def check_overlay_exclusivity(self) -> List[Violation]:
        """Section 4.1: overlay XOR physical page, per line.

        Both directions test for a *dirty* copy under the wrong tag.
        Clean copies under the wrong tag are architecturally harmless —
        reads route through ``access_line`` so they are never consumed,
        and the prefetcher (or a copy-on-write sharer of the frame)
        legitimately leaves them behind.  A dirty copy, by contrast,
        means a store landed on the side the mapping says is dead:
        pre-remap data shadowing the overlay, or an overlay write whose
        *overlaying read exclusive* message was lost.
        """
        found: List[Violation] = []
        hierarchy = self.system.hierarchy
        # Only a page with a dirty cached line, under either of its two
        # page numbers, can break the rule.
        dirty_pages = {tag // LINES_PER_PAGE
                       for level in hierarchy.caches()
                       for tag in compress(level._tags, level._dirty)}
        for asid, vpn, pte in self._mapped_pages():
            opn = overlay_page_number(asid, vpn)
            if pte.ppn not in dirty_pages and opn not in dirty_pages:
                continue
            entry = self.system.controller.omt.lookup(opn)
            for line in range(LINES_PER_PAGE):
                in_overlay = (entry is not None
                              and entry.obitvector.is_set(line))
                if (in_overlay and pte.overlays_enabled
                        and hierarchy.dirty_data(
                            line_tag_of(pte.ppn, line)) is not None):
                    found.append(Violation(
                        "overlay-exclusivity", self._page(asid, vpn),
                        f"line {line} mapped to the overlay but a dirty "
                        f"physical copy is still cached"))
                elif (not in_overlay and hierarchy.dirty_data(
                        line_tag_of(opn, line)) is not None):
                    found.append(Violation(
                        "overlay-exclusivity", self._page(asid, vpn),
                        f"line {line} dirty under the overlay tag "
                        f"without its OBitVector bit"))
        self._count(found, "overlay_exclusivity_violations")
        return found

    def check_omt_page_table(self) -> List[Violation]:
        """Sections 4.2/4.3: the OMT shadows the page table."""
        found: List[Violation] = []
        for opn, entry in self.system.controller.omt.items():
            asid, vaddr = decompose_overlay_address(page_address(opn))
            vpn = vaddr >> 12
            table = self.system.page_tables.get(asid)
            pte = table.entry(vpn) if table is not None else None
            if pte is None:
                if not entry.obitvector.is_empty():
                    found.append(Violation(
                        "omt-page-table", self._page(asid, vpn),
                        f"OMT entry holds {entry.obitvector.count()} "
                        f"overlay line(s) for an unmapped page"))
                continue
            if not pte.overlays_enabled and not entry.obitvector.is_empty():
                found.append(Violation(
                    "omt-page-table", self._page(asid, vpn),
                    "OMT entry holds overlay lines for a page with "
                    "overlays disabled"))
            for line in entry.obitvector.lines():
                cached = self.system.hierarchy.lookup_data(
                    line_tag_of(opn, line)) is not None
                stored = (entry.segment is not None
                          and entry.segment.has_line(line))
                if not cached and not stored:
                    found.append(Violation(
                        "omt-page-table", self._page(asid, vpn),
                        f"OBitVector bit {line} set but no overlay data "
                        f"exists (not cached, not in a segment)"))
            # A shadow-memory segment's lines keep their bits clear.
            if entry.segment is not None and not entry.shadow:
                for line in entry.segment.mapped_lines():
                    if not entry.obitvector.is_set(line):
                        found.append(Violation(
                            "omt-page-table", self._page(asid, vpn),
                            f"segment holds data for line {line} but "
                            f"its OBitVector bit is clear"))
        self._count(found, "omt_page_table_violations")
        return found

    def check_tlb_coherence(self) -> List[Violation]:
        """Section 4.3.3: TLB OBitVector copies match the OMT."""
        found: List[Violation] = []
        omt = self.system.controller.omt
        for index, tlb in enumerate(self.system.tlbs):
            for entry in tlb.cached_entries():
                if not entry.pte.overlays_enabled:
                    continue
                opn = overlay_page_number(entry.asid, entry.vpn)
                authoritative = omt.lookup(opn)
                truth = (authoritative.obitvector.raw
                         if authoritative is not None else 0)
                if entry.obitvector.raw != truth:
                    diff = entry.obitvector.raw ^ truth
                    found.append(Violation(
                        "tlb-coherence",
                        self._page(entry.asid, entry.vpn),
                        f"tlb{index} copy differs from the OMT vector "
                        f"(xor mask {diff:#018x})"))
        self._count(found, "tlb_coherence_violations")
        return found

    def check_oms_free_lists(self) -> List[Violation]:
        """Section 4.4.3: free-store and segment-metadata integrity."""
        found: List[Violation] = []
        oms = self.system.oms
        free_ranges: List[Tuple[int, int, int]] = []
        seen: Dict[int, int] = {}
        for size, bases in sorted(oms.free_list_snapshot().items()):
            for base in bases:
                if base in seen:
                    found.append(Violation(
                        "oms-free-list", f"segment@{base:#x}",
                        f"base on both the {seen[base]}B and the "
                        f"{size}B free list"))
                seen[base] = size
                free_ranges.append((base, base + size, size))
        live = oms.live_segments()
        live_ranges = [(seg.base, seg.base + seg.size) for seg in live]
        for start, end, size in free_ranges:
            for lstart, lend in live_ranges:
                if start < lend and lstart < end:
                    found.append(Violation(
                        "oms-free-list", f"segment@{start:#x}",
                        f"free {size}B range overlaps the live segment "
                        f"at {lstart:#x}"))
        for segment in live:
            used: Dict[int, int] = {}
            for line, slot in enumerate(segment.slot_pointers):
                if slot is None:
                    continue
                if not segment.is_direct_mapped and slot >= segment.capacity:
                    found.append(Violation(
                        "oms-free-list", f"segment@{segment.base:#x}",
                        f"line {line} points at slot {slot}, beyond "
                        f"capacity {segment.capacity}"))
                    continue
                if slot in used:
                    found.append(Violation(
                        "oms-free-list", f"segment@{segment.base:#x}",
                        f"lines {used[slot]} and {line} share slot "
                        f"{slot}"))
                used[slot] = line
                if slot not in segment.slots:
                    found.append(Violation(
                        "oms-free-list", f"segment@{segment.base:#x}",
                        f"line {line} points at slot {slot}, which "
                        f"holds no data"))
        self._count(found, "oms_free_list_violations")
        return found

    # -- recovery ------------------------------------------------------------

    def repair(self, violations: List[Violation]) -> int:
        """Recover every page implicated in *violations*; return latency.

        Mapping-level rules route through
        :meth:`~repro.core.framework.OverlaySystem.recover_overlay_mapping`
        (shootdown + OMT re-walk + reconciliation).  OMS free-list damage
        has no architectural recovery short of declaring the overlay
        subsystem faulted — those violations are left to the caller's
        escalation policy.
        """
        latency = 0
        repaired = set()
        for violation in violations:
            if violation.rule == "oms-free-list":
                continue
            location = violation.location
            if not location.startswith("page("):
                continue
            asid, vpn = self._parse_page(location)
            if (asid, vpn) in repaired:
                continue
            repaired.add((asid, vpn))
            latency += self.system.recover_overlay_mapping(asid, vpn)
            self.stats.repairs += 1
        return latency

    # -- helpers -------------------------------------------------------------

    def _mapped_pages(self):
        """Every mapped 4KB page, deterministically ordered."""
        for asid in sorted(self.system.page_tables):
            table = self.system.page_tables[asid]
            for vpn in sorted(table.mapped_vpns()):
                yield asid, vpn, table.entry(vpn)

    @staticmethod
    def _page(asid: int, vpn: int) -> str:
        return f"page({asid},{vpn:#x})"

    @staticmethod
    def _parse_page(location: str) -> Tuple[int, int]:
        asid, vpn = location[len("page("):-1].split(",")
        return int(asid), int(vpn, 16)

    def _count(self, found: List[Violation], counter: str) -> None:
        if found:
            self.stats.violations += len(found)
            setattr(self.stats, counter,
                    getattr(self.stats, counter) + len(found))
