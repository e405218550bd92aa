"""Cross-module integration tests: whole-system scenarios combining
fork, overlays, techniques, and the timing substrate."""

import pytest

from repro.core.address import LINE_SIZE, PAGE_SIZE
from repro.cpu.core import Core
from repro.cpu.trace import MemoryAccess, Trace
from repro.osmodel.cow import CopyOnWritePolicy
from repro.osmodel.kernel import Kernel
from repro.techniques.checkpoint import CheckpointManager
from repro.techniques.dedup import DeduplicationManager
from repro.techniques.overlay_on_write import OverlayOnWritePolicy
from repro.techniques.speculation import SpeculationContext

pytestmark = pytest.mark.slow

BASE = 0x100 * PAGE_SIZE


class TestForkFamilies:
    def test_three_generation_fork(self, kernel, process):
        """fork(); fork() again: three processes diverge independently."""
        kernel.install_cow_policy(OverlayOnWritePolicy(kernel))
        child = kernel.fork(process)
        grandchild = kernel.fork(child)
        kernel.system.write(process.asid, BASE, b"GEN0")
        kernel.system.write(child.asid, BASE, b"GEN1")
        kernel.system.write(grandchild.asid, BASE, b"GEN2")
        assert kernel.system.read(process.asid, BASE, 4)[0] == b"GEN0"
        assert kernel.system.read(child.asid, BASE, 4)[0] == b"GEN1"
        assert kernel.system.read(grandchild.asid, BASE, 4)[0] == b"GEN2"

    def test_mixed_policies_sequentially(self, kernel, process):
        """Overlay-on-write and copy-on-write coexist on one machine."""
        child = kernel.fork(process)
        kernel.install_cow_policy(OverlayOnWritePolicy(kernel))
        kernel.system.write(child.asid, BASE, b"OVL")
        kernel.install_cow_policy(CopyOnWritePolicy(kernel))
        kernel.system.write(child.asid, BASE + PAGE_SIZE, b"CPY")
        assert kernel.system.read(child.asid, BASE, 3)[0] == b"OVL"
        assert kernel.system.read(child.asid, BASE + PAGE_SIZE, 3)[0] == b"CPY"
        # One page went to an overlay, the other to a private frame.
        assert kernel.system.overlay_line_count(child.asid, 0x100) == 1
        assert (child.page_table.entry(0x101).ppn
                != process.page_table.entry(0x101).ppn)


class TestOverlayLifecycleUnderTiming:
    def test_trace_driven_fork_workload_preserves_data(self, kernel, process):
        """Running through the timing core must not corrupt data."""
        kernel.install_cow_policy(OverlayOnWritePolicy(kernel))
        child = kernel.fork(process)
        core = Core(kernel.system, child.asid)
        accesses = []
        expected = {}
        for i in range(100):
            page, line = i % 8, (i * 7) % 64
            vaddr = BASE + page * PAGE_SIZE + line * LINE_SIZE
            payload = bytes([i % 256]) * 8
            accesses.append(MemoryAccess(vaddr=vaddr, write=True, size=8,
                                         data=payload))
            expected[vaddr] = payload
        core.run(Trace(accesses))
        for vaddr, payload in expected.items():
            data, _ = kernel.system.read(child.asid, vaddr, 8)
            assert data == payload
        # Parent unaffected throughout.
        assert kernel.system.page_bytes(process.asid, 0x100) == (
            b"fx" * (PAGE_SIZE // 2))

    def test_eviction_pressure_roundtrip(self, kernel):
        """Write far more overlay lines than the caches hold; every line
        must survive the trip through the Overlay Memory Store."""
        process = kernel.create_process()
        kernel.mmap(process, 0x100, 128, fill=b"ep")
        kernel.install_cow_policy(OverlayOnWritePolicy(kernel))
        kernel.fork(process)
        expected = {}
        for page in range(128):
            for line in range(0, 64, 4):
                vaddr = BASE + page * PAGE_SIZE + line * LINE_SIZE
                payload = bytes([(page * 64 + line) % 256]) * 8
                kernel.system.write(process.asid, vaddr, payload)
                expected[vaddr] = payload
        kernel.system.hierarchy.flush_dirty()
        # Drop every cached line so reads must come from the OMS.
        for vaddr in expected:
            from repro.core.address import (line_index, line_tag_of,
                                            overlay_page_number, page_number)
            tag = line_tag_of(
                overlay_page_number(process.asid, page_number(vaddr)),
                line_index(vaddr))
            kernel.system.hierarchy.invalidate(tag, writeback=True)
        for vaddr, payload in expected.items():
            data, _ = kernel.system.read(process.asid, vaddr, 8)
            assert data == payload, hex(vaddr)


class TestTechniquesComposed:
    def test_speculation_then_checkpoint(self, kernel, process):
        """Commit a speculation, checkpoint it, recover the image."""
        spec = SpeculationContext(kernel, process)
        spec.begin()
        spec.write(BASE, b"txn-result")
        spec.commit()

        manager = CheckpointManager(kernel, process)
        manager.begin()
        kernel.system.write(process.asid, BASE + LINE_SIZE, b"post-txn")
        record = manager.take_checkpoint()
        assert record.bytes_written == LINE_SIZE
        view = manager.restore_view(1)[0x100]
        assert view[:10] == b"txn-result"
        assert view[LINE_SIZE:LINE_SIZE + 8] == b"post-txn"

    def test_dedup_then_diverge_then_dedup_again(self, kernel):
        a = kernel.create_process()
        b = kernel.create_process()
        kernel.mmap(a, 0x10, 1, fill=b"eq")
        kernel.mmap(b, 0x10, 1, fill=b"eq")
        manager = DeduplicationManager(kernel)
        assert manager.deduplicate([(a.asid, 0x10), (b.asid, 0x10)]) == 1
        kernel.system.write(b.asid, 0x10 * PAGE_SIZE, b"div")
        assert kernel.system.read(a.asid, 0x10 * PAGE_SIZE, 3)[0] == b"eqe"
        assert kernel.system.read(b.asid, 0x10 * PAGE_SIZE, 3)[0] == b"div"

    def test_fork_checkpointing_scenario(self, kernel, process):
        """The paper's Section 5.1 scenario: periodic fork checkpoints."""
        kernel.install_cow_policy(OverlayOnWritePolicy(kernel))
        snapshots = []
        for epoch in range(3):
            snapshot = kernel.fork(process)
            snapshots.append(snapshot)
            kernel.system.write(process.asid, BASE,
                                f"epoch{epoch}".encode())
        for epoch, snapshot in enumerate(snapshots):
            data, _ = kernel.system.read(snapshot.asid, BASE, 6)
            if epoch == 0:
                assert data == b"fx" * 3
            else:
                assert data == f"epoch{epoch - 1}".encode()


class TestStatsConsistency:
    def test_counters_add_up(self, kernel, process):
        kernel.install_cow_policy(OverlayOnWritePolicy(kernel))
        kernel.fork(process)
        for line in range(10):
            kernel.system.write(process.asid, BASE + line * LINE_SIZE, b"s")
        stats = kernel.system.stats
        assert stats.overlaying_writes == 10
        assert stats.cow_triggers == 10
        assert (kernel.system.coherence.stats
                .overlaying_read_exclusive_messages == 10)
        assert kernel.system.overlay_line_count(process.asid, 0x100) == 10
