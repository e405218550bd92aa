"""Tests for technique 3: fine-grained deduplication (Section 5.3.1)."""

import pytest

from repro.core.address import PAGE_SIZE
from repro.techniques.dedup import DeduplicationManager


def two_processes(kernel, fill=b"dup", pages=1):
    a = kernel.create_process()
    b = kernel.create_process()
    kernel.mmap(a, 0x10, pages, fill=fill)
    kernel.mmap(b, 0x20, pages, fill=fill)
    return a, b


class TestDedup:
    def test_identical_pages_merge(self, kernel):
        a, b = two_processes(kernel)
        manager = DeduplicationManager(kernel)
        merged = manager.deduplicate([(a.asid, 0x10), (b.asid, 0x20)])
        assert merged == 1
        assert manager.stats.frames_freed == 1
        assert (kernel.system.page_tables[b.asid].entry(0x20).ppn
                == kernel.system.page_tables[a.asid].entry(0x10).ppn)

    def test_contents_preserved_after_merge(self, kernel):
        a, b = two_processes(kernel)
        kernel.system.write(b.asid, 0x20 * PAGE_SIZE + 200, b"delta")
        manager = DeduplicationManager(kernel)
        view_a = kernel.system.page_bytes(a.asid, 0x10)
        view_b = kernel.system.page_bytes(b.asid, 0x20)
        manager.deduplicate([(a.asid, 0x10), (b.asid, 0x20)])
        assert kernel.system.page_bytes(a.asid, 0x10) == view_a
        assert kernel.system.page_bytes(b.asid, 0x20) == view_b

    def test_differences_stored_as_overlay_lines(self, kernel):
        a, b = two_processes(kernel)
        kernel.system.write(b.asid, 0x20 * PAGE_SIZE + 128, b"diff")
        manager = DeduplicationManager(kernel)
        manager.deduplicate([(a.asid, 0x10), (b.asid, 0x20)])
        assert manager.stats.overlay_lines_created == 1
        assert kernel.system.overlay_line_count(b.asid, 0x20) == 1

    def test_too_different_pages_not_merged(self, kernel):
        a, b = two_processes(kernel)
        # Touch 20 lines; the default threshold is 16.
        for line in range(20):
            kernel.system.write(b.asid, 0x20 * PAGE_SIZE + line * 64, b"~")
        manager = DeduplicationManager(kernel, max_diff_lines=16)
        merged = manager.deduplicate([(a.asid, 0x10), (b.asid, 0x20)])
        assert merged == 0
        assert manager.stats.frames_freed == 0

    def test_sampled_signature_requires_similar_sample_lines(self, kernel):
        a, b = two_processes(kernel)
        # Diverge a sampled line: the pages land in different clusters.
        kernel.system.write(b.asid, 0x20 * PAGE_SIZE, b"sampled-line-diff")
        manager = DeduplicationManager(kernel, sample_lines=(0,))
        assert manager.deduplicate([(a.asid, 0x10), (b.asid, 0x20)]) == 0

    def test_write_after_dedup_diverges_via_overlay(self, kernel):
        a, b = two_processes(kernel)
        manager = DeduplicationManager(kernel)
        manager.deduplicate([(a.asid, 0x10), (b.asid, 0x20)])
        kernel.system.write(b.asid, 0x20 * PAGE_SIZE, b"B-ONLY")
        assert kernel.system.read(b.asid, 0x20 * PAGE_SIZE, 6)[0] == b"B-ONLY"
        assert kernel.system.read(a.asid, 0x10 * PAGE_SIZE, 6)[0] == b"dupdup"

    def test_memory_savings_accounting(self, kernel):
        a, b = two_processes(kernel)
        kernel.system.write(b.asid, 0x20 * PAGE_SIZE + 64, b"x")
        manager = DeduplicationManager(kernel)
        manager.deduplicate([(a.asid, 0x10), (b.asid, 0x20)])
        stats = manager.stats
        assert (stats.frames_freed, stats.overlay_lines_created) == (1, 1)

    def test_many_way_dedup(self, kernel):
        processes = []
        for i in range(4):
            proc = kernel.create_process()
            kernel.mmap(proc, 0x10, 1, fill=b"same")
            processes.append(proc)
        manager = DeduplicationManager(kernel)
        merged = manager.deduplicate([(p.asid, 0x10) for p in processes])
        assert merged == 3
        assert manager.stats.frames_freed == 3
        base_ppn = kernel.system.page_tables[processes[0].asid].entry(0x10).ppn
        assert kernel.allocator.refcount(base_ppn) == 4

    def test_invalid_threshold_rejected(self, kernel):
        with pytest.raises(ValueError):
            DeduplicationManager(kernel, max_diff_lines=65)
