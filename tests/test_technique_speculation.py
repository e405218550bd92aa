"""Tests for technique 5: virtualizing speculation (Section 5.3.3)."""

import pytest

from repro.core.address import LINE_SIZE, PAGE_SIZE
from repro.techniques.speculation import SpeculationContext, SpeculationError

BASE = 0x100 * PAGE_SIZE


@pytest.fixture
def spec(kernel, process):
    return SpeculationContext(kernel, process)


class TestLifecycle:
    def test_abort_reverts_memory_exactly(self, kernel, process, spec):
        before = {vpn: kernel.system.page_bytes(process.asid, vpn)
                  for vpn in process.page_table.mapped_vpns()}
        spec.begin()
        spec.write(BASE + 10, b"SPECULATIVE")
        spec.write(BASE + PAGE_SIZE, b"MORE")
        spec.abort()
        for vpn, image in before.items():
            assert kernel.system.page_bytes(process.asid, vpn) == image
        assert spec.stats.aborted == 1

    def test_commit_persists_updates(self, kernel, process, spec):
        spec.begin()
        spec.write(BASE + 10, b"COMMITTED")
        spec.commit()
        data, _ = kernel.system.read(process.asid, BASE + 10, 9)
        assert data == b"COMMITTED"
        assert spec.stats.committed == 1

    def test_speculative_state_visible_during_speculation(self, kernel,
                                                          process, spec):
        spec.begin()
        spec.write(BASE, b"TENTATIVE")
        data, _ = kernel.system.read(process.asid, BASE, 9)
        assert data == b"TENTATIVE"
        spec.abort()

    def test_nested_begin_rejected(self, spec):
        spec.begin()
        with pytest.raises(SpeculationError):
            spec.begin()

    def test_write_outside_speculation_rejected(self, spec):
        with pytest.raises(SpeculationError):
            spec.write(BASE, b"x")

    def test_commit_without_begin_rejected(self, spec):
        with pytest.raises(SpeculationError):
            spec.commit()

    def test_permissions_restored_after_close(self, kernel, process, spec):
        spec.begin()
        spec.commit()
        pte = kernel.system.page_tables[process.asid].entry(0x100)
        assert pte.writable and not pte.cow

    def test_sequential_speculations(self, kernel, process, spec):
        spec.begin()
        spec.write(BASE, b"first")
        spec.abort()
        spec.begin()
        spec.write(BASE, b"again")
        spec.commit()
        assert kernel.system.read(process.asid, BASE, 5)[0] == b"again"


class TestUnboundedSpeculation:
    def test_eviction_does_not_abort(self, kernel, process, spec):
        """The paper's key claim: a speculatively-modified line leaving
        the cache lands in the OMS instead of killing the speculation."""
        spec.begin()
        spec.write(BASE, b"EVICTED-BUT-ALIVE")
        # Force every dirty line out of the entire hierarchy.
        kernel.system.hierarchy.flush_dirty()
        for line in range(1):
            kernel.system.hierarchy.invalidate(0)  # no-op tag; harmless
        assert kernel.system.overlay_memory_allocated > 0
        spec.commit()
        data, _ = kernel.system.read(process.asid, BASE, 17)
        assert data == b"EVICTED-BUT-ALIVE"

    def test_speculation_spanning_many_lines(self, kernel, process, spec):
        spec.begin()
        for page in range(8):
            for line in range(0, 64, 8):
                spec.write(BASE + page * PAGE_SIZE + line * LINE_SIZE,
                           bytes([page * 8 + line % 251]) * 8)
        assert spec.speculative_line_count() == 8 * 8
        assert spec.stats.speculative_lines_peak == 64
        spec.abort()
        assert spec.speculative_line_count() == 0

    def test_abort_frees_overlay_memory(self, kernel, process, spec):
        spec.begin()
        for line in range(16):
            spec.write(BASE + line * LINE_SIZE, b"s" * 8)
        kernel.system.hierarchy.flush_dirty()
        assert kernel.system.overlay_memory_allocated > 0
        spec.abort()
        assert kernel.system.overlay_memory_allocated == 0
