"""Architectural invariant checking and the recovery paths behind it.

The contract under test (DESIGN.md "Robustness"):

* a healthy machine — including one with prefetched clean copies and
  CoW frame sharing — passes every rule with zero violations;
* each of the four rules detects its seeded corruption;
* ``repair`` restores consistency and the architectural image;
* a seeded OMT flip silently corrupts reads (no exception, normal
  stats) and only the invariant sweep catches it;
* graceful degradation rewrites every overlay page onto plain frames
  and falls back to full-page copy-on-write.
"""

import pytest

from repro.core.address import PAGE_SIZE, line_tag_of, overlay_page_number
from repro.osmodel.kernel import Kernel
from repro.robust import (RULES, FaultPlan, InvariantChecker, Violation,
                          fault_session)
from repro.techniques.metadata import MetadataManager

BASE_VPN = 0x100
BASE = BASE_VPN * PAGE_SIZE


def _cow_machine(pages=2, fill=b"fx"):
    kernel = Kernel()
    process = kernel.create_process()
    kernel.mmap(process, BASE_VPN, pages, fill=fill)
    kernel.fork(process)
    return kernel, process


def _rules_in(violations):
    return {violation.rule for violation in violations}


class TestCleanMachine:
    def test_fresh_system_passes(self):
        kernel, _ = _cow_machine()
        checker = InvariantChecker(kernel.system)
        assert checker.check_all() == []
        assert checker.stats.checks == 1
        assert checker.stats.violations == 0

    def test_active_overlay_state_passes(self):
        """Writes, reads, flushes and promotions leave no violations —
        including the clean wrong-tag copies prefetching creates."""
        kernel, process = _cow_machine(pages=3)
        checker = InvariantChecker(kernel.system)
        for page in range(3):
            kernel.system.write(process.asid, BASE + page * PAGE_SIZE,
                                b"w" * 8)
            kernel.system.read(process.asid, BASE + page * PAGE_SIZE + 64, 8)
        assert checker.check_all() == []
        kernel.system.hierarchy.flush_dirty()
        assert checker.check_all() == []
        kernel.system.promote(process.asid, BASE_VPN, "commit")
        assert checker.check_all() == []

    def test_cadence_skips_within_interval(self):
        kernel, _ = _cow_machine()
        checker = InvariantChecker(kernel.system, check_interval=1000)
        assert checker.maybe_check() == []      # first sweep always runs
        sweeps = checker.stats.checks
        kernel.system.clock += 10
        checker.maybe_check()                   # inside the interval
        assert checker.stats.checks == sweeps
        kernel.system.clock += 1000
        checker.maybe_check()                   # past it
        assert checker.stats.checks == sweeps + 1

    def test_negative_interval_rejected(self):
        kernel, _ = _cow_machine()
        with pytest.raises(ValueError):
            InvariantChecker(kernel.system, check_interval=-1)


class TestOverlayExclusivity:
    def test_dirty_physical_copy_detected(self):
        kernel, process = _cow_machine()
        kernel.system.write(process.asid, BASE, b"w" * 8)  # line 0 remapped
        pte = kernel.system.page_tables[process.asid].entry(BASE_VPN)
        opn = overlay_page_number(process.asid, BASE_VPN)
        # Simulate the breach: the dirty overlay line reappears under
        # the physical tag while the OMT still maps it to the overlay.
        kernel.system.hierarchy.retag(line_tag_of(opn, 0),
                                      line_tag_of(pte.ppn, 0))
        violations = InvariantChecker(kernel.system).check_all()
        assert any(v.rule == "overlay-exclusivity"
                   and "dirty physical copy" in v.detail
                   for v in violations)

    def test_dirty_overlay_line_without_bit_detected(self):
        kernel, process = _cow_machine()
        kernel.system.write(process.asid, BASE, b"w" * 8)
        opn = overlay_page_number(process.asid, BASE_VPN)
        entry = kernel.system.controller.omt.lookup(opn)
        entry.obitvector.clear(0)  # a dropped overlaying-read-exclusive
        violations = InvariantChecker(kernel.system).check_all()
        assert any(v.rule == "overlay-exclusivity"
                   and "without its OBitVector bit" in v.detail
                   for v in violations)
        checker = InvariantChecker(kernel.system, name="counting")
        checker.check_all()
        assert checker.stats.overlay_exclusivity_violations > 0


class TestOmtPageTable:
    def test_orphan_entry_detected(self):
        kernel, _ = _cow_machine()
        orphan = kernel.system.controller.omt.ensure(
            overlay_page_number(99, 0x500))
        orphan.obitvector.set(3)
        violations = InvariantChecker(kernel.system).check_all()
        assert any(v.rule == "omt-page-table" and "unmapped page" in v.detail
                   for v in violations)

    def test_bit_without_data_detected(self):
        kernel, process = _cow_machine()
        entry = kernel.system.controller.omt.ensure(
            overlay_page_number(process.asid, BASE_VPN))
        entry.obitvector.set(17)  # nothing cached, nothing stored
        violations = InvariantChecker(kernel.system).check_all()
        assert any(v.rule == "omt-page-table"
                   and "no overlay data exists" in v.detail
                   for v in violations)

    def test_segment_line_with_clear_bit_detected(self):
        kernel, process = _cow_machine()
        kernel.system.write(process.asid, BASE, b"w" * 8)
        kernel.system.hierarchy.flush_dirty()  # line 0 into a segment
        opn = overlay_page_number(process.asid, BASE_VPN)
        entry = kernel.system.controller.omt.lookup(opn)
        assert entry.segment is not None and entry.segment.has_line(0)
        entry.obitvector.clear(0)
        violations = InvariantChecker(kernel.system).check_all()
        assert any(v.rule == "omt-page-table"
                   and "OBitVector bit is clear" in v.detail
                   for v in violations)

    def test_only_shadow_memory_lines_may_keep_their_bits_clear(self):
        """Section 5.3.4's metadata lines live in OMS segments with the
        OBitVector clear: no violation while the entry is marked shadow,
        and the same segment line is reported once it is not."""
        kernel, process = _cow_machine()
        MetadataManager(kernel, process).metadata_store(BASE + 64, 5)
        entry = kernel.system.controller.omt.lookup(
            overlay_page_number(process.asid, BASE_VPN))
        assert entry.shadow and entry.segment.has_line(1)
        assert entry.obitvector.is_empty()
        checker = InvariantChecker(kernel.system)
        assert checker.check_all() == []
        entry.shadow = False
        assert [(v.rule, v.detail) for v in checker.check_all()] == [
            ("omt-page-table",
             "segment holds data for line 1 but its OBitVector bit is clear")]


class TestTlbCoherence:
    def test_stale_tlb_copy_detected(self):
        kernel, process = _cow_machine()
        kernel.system.write(process.asid, BASE, b"w" * 8)
        kernel.system.read(process.asid, BASE, 8)  # TLB holds a copy
        stale = [entry for entry in kernel.system.tlbs[0].cached_entries()
                 if entry.asid == process.asid and entry.vpn == BASE_VPN]
        assert stale
        stale[0].obitvector.set(41)  # private copy diverges
        violations = InvariantChecker(kernel.system).check_all()
        tlb = [v for v in violations if v.rule == "tlb-coherence"]
        assert tlb and "tlb0" in tlb[0].detail


class TestOmsFreeLists:
    def test_corrupt_slot_pointer_detected(self):
        kernel, process = _cow_machine()
        kernel.system.write(process.asid, BASE, b"w" * 8)
        kernel.system.hierarchy.flush_dirty()
        opn = overlay_page_number(process.asid, BASE_VPN)
        segment = kernel.system.controller.omt.lookup(opn).segment
        segment.slot_pointers[0] = segment.capacity
        violations = InvariantChecker(kernel.system).check_all()
        assert any(v.rule == "oms-free-list" and "beyond" in v.detail
                   for v in violations)

    def test_duplicate_free_base_detected(self):
        kernel, _ = _cow_machine()
        oms = kernel.system.oms
        size, bases = next((size, bases) for size, bases
                           in sorted(oms._free_lists.items()) if bases)
        bases.append(bases[0])  # the same range free twice
        violations = InvariantChecker(kernel.system).check_all()
        assert any(v.rule == "oms-free-list" and "free list" in v.detail
                   for v in violations)

    def test_free_range_overlapping_live_segment_detected(self):
        kernel, process = _cow_machine()
        kernel.system.write(process.asid, BASE, b"w" * 8)
        kernel.system.hierarchy.flush_dirty()
        oms = kernel.system.oms
        segment = oms.live_segments()[0]
        oms._free_lists[min(oms._free_lists)].append(segment.base)
        violations = InvariantChecker(kernel.system).check_all()
        assert any(v.rule == "oms-free-list" and "overlaps" in v.detail
                   for v in violations)


class TestRepair:
    def test_repair_restores_dropped_remap(self):
        kernel, process = _cow_machine()
        kernel.system.write(process.asid, BASE, b"R" * 8)
        opn = overlay_page_number(process.asid, BASE_VPN)
        kernel.system.controller.omt.lookup(opn).obitvector.clear(0)
        checker = InvariantChecker(kernel.system)
        violations = checker.check_all()
        assert violations
        latency = checker.repair(violations)
        assert latency > 0
        assert checker.stats.repairs > 0
        assert checker.check_all() == []
        data, _ = kernel.system.read(process.asid, BASE, 8)
        assert data == b"R" * 8
        assert kernel.system.stats.mapping_recoveries > 0

    def test_repair_clears_spurious_bit(self):
        kernel, process = _cow_machine()
        entry = kernel.system.controller.omt.ensure(
            overlay_page_number(process.asid, BASE_VPN))
        entry.obitvector.set(9)
        checker = InvariantChecker(kernel.system)
        checker.repair(checker.check_all())
        assert checker.check_all() == []
        assert not entry.obitvector.is_set(9)

    def test_repair_skips_oms_rule(self):
        violation = Violation("oms-free-list", "segment@0x1000", "dup")
        kernel, _ = _cow_machine()
        checker = InvariantChecker(kernel.system)
        assert checker.repair([violation]) == 0
        assert checker.stats.repairs == 0

    def test_repair_drops_orphan_entry(self):
        kernel, _ = _cow_machine()
        opn = overlay_page_number(99, 0x500)
        kernel.system.controller.omt.ensure(opn).obitvector.set(3)
        checker = InvariantChecker(kernel.system)
        checker.repair(checker.check_all())
        assert kernel.system.controller.omt.lookup(opn) is None
        assert checker.check_all() == []


class TestSilentCorruptionCaught:
    def test_seeded_omt_flip_caught_only_by_checker(self):
        """The acceptance scenario: a seeded OMT bit flip makes reads
        return fabricated data with no exception and no error stat —
        only the invariant sweep sees it, and repair undoes it."""
        kernel, process = _cow_machine()
        golden = kernel.system.page_bytes(process.asid, BASE_VPN)
        checker = InvariantChecker(kernel.system)
        with fault_session(FaultPlan(omt_flip_rate=1.0, seed=4)) as injector:
            kernel.system.read(process.asid, BASE, 8)   # the walk flips a bit
            corrupted = kernel.system.page_bytes(process.asid, BASE_VPN)
            violations = checker.check_all()
        assert injector.stats.omt_bit_flips == 1
        assert corrupted != golden          # silent: wrong data, no error
        assert violations                   # ... but the sweep caught it
        assert _rules_in(violations) <= set(RULES)
        checker.repair(violations)
        assert checker.check_all() == []
        assert kernel.system.page_bytes(process.asid, BASE_VPN) == golden


class TestGracefulDegradation:
    def test_degrade_rewrites_overlays_and_disables_them(self):
        kernel, process = _cow_machine(pages=3)
        for page in range(2):
            kernel.system.write(process.asid, BASE + page * PAGE_SIZE,
                                b"D" * 8)
        images = [kernel.system.page_bytes(process.asid, BASE_VPN + page)
                  for page in range(3)]
        latency = kernel.degrade_to_full_page_cow()
        assert latency > 0
        assert kernel.system.overlay_faulted
        assert not kernel.system.overlays_enabled
        assert kernel.stats.degradations == 1
        assert kernel.stats.pages_rescued_on_degradation == 2
        for page in range(3):
            assert kernel.system.page_bytes(
                process.asid, BASE_VPN + page) == images[page]
            assert kernel.system.overlay_line_count(
                process.asid, BASE_VPN + page) == 0
        assert InvariantChecker(kernel.system).check_all() == []

    def test_degraded_machine_still_does_cow_writes(self):
        kernel, process = _cow_machine()
        kernel.system.write(process.asid, BASE, b"D" * 8)
        kernel.degrade_to_full_page_cow()
        kernel.system.write(process.asid, BASE + PAGE_SIZE, b"Z" * 8)
        assert kernel.system.page_bytes(
            process.asid, BASE_VPN + 1)[:8] == b"Z" * 8
        # Full-page CoW, not an overlay:
        assert kernel.system.overlay_line_count(
            process.asid, BASE_VPN + 1) == 0
