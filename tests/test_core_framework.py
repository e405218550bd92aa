"""Integration-grade unit tests for the OverlaySystem facade — the
access semantics of Figure 2 and the operations of Section 4.3."""

from dataclasses import replace

import pytest

from repro.config import DEFAULT_CONFIG
from repro.core.address import (LINE_SIZE, PAGE_SIZE, line_tag_of,
                                overlay_page_number)
from repro.core.framework import CowWriteFault, OverlaySystem
from repro.core.page_table import PageFault
from repro.cpu.core import Core
from repro.cpu.trace import MemoryAccess, Trace
from repro.obs import tracing_session


def vaddr(vpn, line=0, offset=0):
    return vpn * PAGE_SIZE + line * LINE_SIZE + offset


class TestBasicAccess:
    def test_read_unwritten_memory_is_zero(self, system):
        system.map_page(1, 0x10, 0x99)
        data, _ = system.read(1, vaddr(0x10), 8)
        assert data == bytes(8)

    def test_write_then_read(self, system):
        system.map_page(1, 0x10, 0x99)
        system.write(1, vaddr(0x10, 2, 5), b"hello")
        data, _ = system.read(1, vaddr(0x10, 2, 5), 5)
        assert data == b"hello"

    def test_partial_line_write_preserves_rest(self, system):
        system.map_page(1, 0x10, 0x99)
        system.write(1, vaddr(0x10, 1), b"A" * 64)
        system.write(1, vaddr(0x10, 1, 10), b"BB")
        data, _ = system.read(1, vaddr(0x10, 1), 64)
        assert data == b"A" * 10 + b"BB" + b"A" * 52

    def test_access_spanning_lines(self, system):
        system.map_page(1, 0x10, 0x99)
        payload = bytes(range(100))
        system.write(1, vaddr(0x10, 0, 30), payload)
        data, _ = system.read(1, vaddr(0x10, 0, 30), 100)
        assert data == payload

    def test_access_crossing_page_boundary(self, system):
        system.map_page(1, 0x10, 0x99)
        system.map_page(1, 0x11, 0x9A)
        system.write(1, vaddr(0x10, 63, 60), b"12345678")
        data, _ = system.read(1, vaddr(0x10, 63, 60), 8)
        assert data == b"12345678"
        # The tail really lives in the second page.
        tail, _ = system.read(1, vaddr(0x11, 0, 0), 4)
        assert tail == b"5678"

    def test_access_into_unmapped_page_faults_mid_span(self, system):
        system.map_page(1, 0x10, 0x99)
        with pytest.raises(PageFault):
            system.write(1, vaddr(0x10, 63, 60), b"12345678")

    def test_unmapped_access_faults(self, system):
        with pytest.raises(KeyError):
            system.read(1, vaddr(0x10), 8)
        system.register_address_space(1)
        with pytest.raises(PageFault):
            system.read(1, vaddr(0x10), 8)

    def test_first_access_pays_tlb_miss(self, system):
        system.map_page(1, 0x10, 0x99)
        _, cold = system.read(1, vaddr(0x10), 8)
        _, warm = system.read(1, vaddr(0x10), 8)
        assert cold > 1000 > warm

    def test_reads_from_backing_frame(self, system):
        """Data placed in the physical frame is visible virtually."""
        system.map_page(1, 0x10, 0x42)
        system.main_memory.write_line(0x42, 3, b"Q" * 64)
        data, _ = system.read(1, vaddr(0x10, 3), 4)
        assert data == b"QQQQ"


class TestAccessSemantics:
    """Figure 2: overlay lines from the overlay, others from the page."""

    def setup_overlay(self, system):
        system.map_page(1, 0x10, 0x42)
        system.main_memory.write_page(0x42, b"P" * PAGE_SIZE)
        system.install_overlay_line(1, 0x10, 1, b"O" * 64)
        system.install_overlay_line(1, 0x10, 3, b"o" * 64)

    def test_overlay_lines_come_from_overlay(self, system):
        self.setup_overlay(system)
        assert system.read(1, vaddr(0x10, 1), 4)[0] == b"OOOO"
        assert system.read(1, vaddr(0x10, 3), 4)[0] == b"oooo"

    def test_other_lines_come_from_physical_page(self, system):
        self.setup_overlay(system)
        assert system.read(1, vaddr(0x10, 0), 4)[0] == b"PPPP"
        assert system.read(1, vaddr(0x10, 2), 4)[0] == b"PPPP"

    def test_page_bytes_merges_both(self, system):
        self.setup_overlay(system)
        merged = system.page_bytes(1, 0x10)
        assert merged[0:64] == b"P" * 64
        assert merged[64:128] == b"O" * 64
        assert merged[192:256] == b"o" * 64

    def test_overlay_disabled_ignores_overlay(self, system):
        self.setup_overlay(system)
        system.page_tables[1].update(0x10, overlays_enabled=False)
        for tlb in system.tlbs:
            tlb.flush()
        assert system.read(1, vaddr(0x10, 1), 4)[0] == b"PPPP"

    def test_overlay_line_count(self, system):
        self.setup_overlay(system)
        assert system.overlay_line_count(1, 0x10) == 2


class TestOverlayingWrite:
    def shared_setup(self, system):
        system.main_memory.write_page(0x42, b"S" * PAGE_SIZE)
        system.map_page(1, 0x10, 0x42, cow=True, writable=False)
        system.map_page(2, 0x10, 0x42, cow=True, writable=False)

    def test_write_isolates_sharers(self, system):
        self.shared_setup(system)
        system.write(2, vaddr(0x10, 5), b"CHILD")
        assert system.read(2, vaddr(0x10, 5), 5)[0] == b"CHILD"
        assert system.read(1, vaddr(0x10, 5), 5)[0] == b"SSSSS"

    def test_preserves_rest_of_line(self, system):
        """Step 1 moves the old line data under the overlay tag."""
        self.shared_setup(system)
        system.write(2, vaddr(0x10, 5, 8), b"X")
        line, _ = system.read(2, vaddr(0x10, 5), 64)
        assert line == b"S" * 8 + b"X" + b"S" * 55

    def test_sets_obitvector_everywhere(self, system):
        self.shared_setup(system)
        system.read(2, vaddr(0x10), 1)  # cache the translation
        system.write(2, vaddr(0x10, 5), b"x")
        opn = overlay_page_number(2, 0x10)
        assert system.controller.omt.lookup(opn).obitvector.is_set(5)
        entry = system.tlbs[0].cached_entry(2, 0x10)
        assert entry.obitvector.is_set(5)

    def test_no_tlb_shootdown(self, system):
        self.shared_setup(system)
        system.write(2, vaddr(0x10, 5), b"x")
        assert system.coherence.stats.shootdowns == 0
        assert system.coherence.stats.overlaying_read_exclusive_messages == 1

    def test_lazy_oms_allocation(self, system):
        """No overlay memory is allocated until a dirty eviction."""
        self.shared_setup(system)
        system.write(2, vaddr(0x10, 5), b"x")
        assert system.overlay_memory_allocated == 0
        system.hierarchy.flush_dirty()
        assert system.overlay_memory_allocated > 0

    def test_data_survives_flush(self, system):
        self.shared_setup(system)
        system.write(2, vaddr(0x10, 5), b"DATA!")
        system.hierarchy.flush_dirty()
        system.hierarchy.invalidate(
            line_tag_of(overlay_page_number(2, 0x10), 5), writeback=False)
        assert system.read(2, vaddr(0x10, 5), 5)[0] == b"DATA!"

    def test_second_write_is_simple_write(self, system):
        self.shared_setup(system)
        system.write(2, vaddr(0x10, 5), b"one")
        messages = system.coherence.stats.overlaying_read_exclusive_messages
        system.write(2, vaddr(0x10, 5), b"two")
        assert (system.coherence.stats.overlaying_read_exclusive_messages
                == messages)
        assert system.stats.simple_overlay_writes >= 1

    def test_remap_preserves_dirty_preexisting_data(self, system):
        """Regression: an overlaying write must not steal a dirty
        physical line — its pre-remap data has to reach the frame so a
        later `discard` can recover it."""
        system.map_page(1, 0x10, 0x42)
        system.write(1, vaddr(0x10, 5), b"PRECIOUS")  # dirty in cache only
        system.update_mapping(1, 0x10, cow=True, writable=False)
        system.write(1, vaddr(0x10, 5), b"SPECULATIVE")
        system.promote(1, 0x10, "discard")
        data, _ = system.read(1, vaddr(0x10, 5), 8)
        assert data == b"PRECIOUS"

    def test_disabled_overlays_raise_without_handler(self, system):
        system.map_page(1, 0x10, 0x42, cow=True, writable=False,
                        overlays_enabled=False)
        with pytest.raises(CowWriteFault):
            system.write(1, vaddr(0x10), b"x")


class TestPromotion:
    def overlaid_page(self, system):
        system.main_memory.write_page(0x42, b"B" * PAGE_SIZE)
        system.map_page(1, 0x10, 0x42, cow=True, writable=False)
        system.map_page(2, 0x10, 0x42, cow=True, writable=False)
        system.write(1, vaddr(0x10, 2), b"MODIFIED")
        return system.page_bytes(1, 0x10)

    def test_copy_and_commit_moves_to_new_frame(self, system):
        view = self.overlaid_page(system)
        system.promote(1, 0x10, "copy-and-commit", new_ppn=0x77)
        assert system.page_bytes(1, 0x10) == view
        pte = system.page_tables[1].entry(0x10)
        assert pte.ppn == 0x77 and not pte.cow and pte.writable
        assert system.overlay_line_count(1, 0x10) == 0
        # The sharer still sees the original data.
        assert system.page_bytes(2, 0x10) == b"B" * PAGE_SIZE

    def test_copy_and_commit_requires_frame(self, system):
        self.overlaid_page(system)
        with pytest.raises(ValueError):
            system.promote(1, 0x10, "copy-and-commit")

    def test_commit_folds_into_existing_frame(self, system):
        system.map_page(1, 0x20, 0x50)
        system.main_memory.write_page(0x50, b"c" * PAGE_SIZE)
        system.install_overlay_line(1, 0x20, 7, b"N" * 64)
        view = system.page_bytes(1, 0x20)
        system.promote(1, 0x20, "commit")
        assert system.page_bytes(1, 0x20) == view
        assert system.main_memory.read_line(0x50, 7) == b"N" * 64
        assert system.overlay_line_count(1, 0x20) == 0

    def test_discard_reverts_to_physical(self, system):
        self.overlaid_page(system)
        system.promote(1, 0x10, "discard")
        assert system.page_bytes(1, 0x10) == b"B" * PAGE_SIZE
        assert system.overlay_line_count(1, 0x10) == 0

    def test_promotion_frees_overlay_memory(self, system):
        self.overlaid_page(system)
        system.hierarchy.flush_dirty()
        assert system.overlay_memory_allocated > 0
        system.promote(1, 0x10, "discard")
        assert system.overlay_memory_allocated == 0

    def test_unknown_action_rejected(self, system):
        self.overlaid_page(system)
        with pytest.raises(ValueError):
            system.promote(1, 0x10, "explode")

    def test_promotion_counts_stats(self, system):
        self.overlaid_page(system)
        system.promote(1, 0x10, "discard")
        assert system.stats.promotions["discard"] == 1


class TestPageCopy:
    def test_copy_via_dram_copies_bytes(self, system):
        system.main_memory.write_page(5, b"z" * PAGE_SIZE)
        latency = system.copy_page_via_dram(5, 9)
        assert system.main_memory.read_page(9) == b"z" * PAGE_SIZE
        assert latency > 0

    def test_copy_via_cache_copies_and_pollutes(self, system):
        system.main_memory.write_page(5, b"y" * PAGE_SIZE)
        system.copy_page_via_cache(5, 9)
        assert system.main_memory.read_page(9) == b"y" * PAGE_SIZE
        # The destination lines are now resident (cache pollution).
        assert system.hierarchy.lookup_data(line_tag_of(9, 0)) == b"y" * 64

    def test_destination_lines_written_back_during_the_copy(self):
        # Caches of 2, 4 and 8 lines: the copy's own dirty destination
        # lines leave the L3 while it runs, and their writebacks store
        # into the frame the copy holds.
        config = replace(DEFAULT_CONFIG, l1_bytes=128, l1_ways=2,
                         l2_bytes=256, l2_ways=4, l3_bytes=512, l3_ways=8)
        system = OverlaySystem(config=config)
        memory = system.main_memory
        memory.write_page(5, bytes(range(256)) * 16)
        with tracing_session() as tracer:
            system.copy_page_via_cache(5, 9)
        written_back = {event.args["tag"] for event in tracer
                        if event.name == "writeback"}
        assert written_back & {line_tag_of(9, line) for line in range(64)}
        assert memory.read_page(9) == memory.read_page(5)
        assert all(memory.read_line(9, line) is memory.read_line(5, line)
                   for line in range(64))


class TestStoreBuffers:
    def test_a_trace_store_does_not_alias_its_buffer(self, system):
        system.map_page(1, 0x10, 0x99)
        buf = bytearray(b"s" * LINE_SIZE)
        Core(system, 1).run(Trace([MemoryAccess(vaddr(0x10), write=True,
                                                size=LINE_SIZE, data=buf)]))
        tag = line_tag_of(0x99, 0)
        buf[:] = b"m" * LINE_SIZE
        assert system.hierarchy.lookup_data(tag) == b"s" * LINE_SIZE
        assert system.line_bytes(1, 0x10, 0) == b"s" * LINE_SIZE
        system.hierarchy.flush_dirty()
        buf[:] = b"n" * LINE_SIZE
        assert system.main_memory.read_line(0x99, 0) == b"s" * LINE_SIZE


class TestSerializingEvents:
    def test_flag_is_consumed_once(self, system):
        """A noted trap serializes the access in flight only: the core's
        step consumes the flag, and the next access overlaps again."""
        system.map_page(1, 0x10, 0x42)
        core = Core(system, 1)
        state = core.begin_run(Trace([MemoryAccess(0x10 * PAGE_SIZE)] * 3))
        core.step(state)
        system.note_serializing_event()
        core.step(state)
        core.step(state)
        assert state.stats.faults_served == 1
        assert len(state.inflight) == 1


class TestConstruction:
    def test_zero_cores_rejected(self):
        with pytest.raises(ValueError):
            OverlaySystem(num_cores=0)

    def test_multi_core_shares_coherence(self):
        system = OverlaySystem(num_cores=4)
        assert len(system.tlbs) == 4
        assert len(system.coherence.tlbs) == 4

    def test_register_address_space_idempotent(self, system):
        a = system.register_address_space(1)
        assert system.register_address_space(1) is a
