"""Unit tests for the OS model: frame allocator, kernel, fork, CoW."""

import pytest

from repro.core.address import PAGE_SIZE
from repro.osmodel.cow import CopyOnWritePolicy
from repro.osmodel.kernel import VPN_BITS, Kernel
from repro.osmodel.physalloc import FrameAllocator, OutOfMemory
from repro.techniques.dedup import DeduplicationManager


class TestFrameAllocator:
    def test_allocates_distinct_frames(self):
        alloc = FrameAllocator()
        frames = {alloc.allocate() for _ in range(100)}
        assert len(frames) == 100

    def test_refcounting(self):
        alloc = FrameAllocator()
        ppn = alloc.allocate()
        assert alloc.refcount(ppn) == 1
        assert alloc.share(ppn) == 2
        assert alloc.release(ppn) == 1
        assert alloc.release(ppn) == 0
        assert alloc.refcount(ppn) == 0

    def test_freed_frames_are_reused(self):
        alloc = FrameAllocator()
        ppn = alloc.allocate()
        alloc.release(ppn)
        assert alloc.allocate() == ppn

    def test_out_of_memory(self):
        alloc = FrameAllocator(total_frames=2)
        alloc.allocate()
        alloc.allocate()
        with pytest.raises(OutOfMemory):
            alloc.allocate()

    def test_share_unallocated_raises(self):
        alloc = FrameAllocator()
        with pytest.raises(KeyError):
            alloc.share(12345)
        with pytest.raises(KeyError):
            alloc.release(12345)

    def test_bytes_in_use(self):
        alloc = FrameAllocator()
        alloc.allocate()
        alloc.allocate()
        assert alloc.bytes_in_use == 2 * PAGE_SIZE

    def test_contiguous_aligned_allocation(self):
        alloc = FrameAllocator()
        alloc.allocate()  # misalign the cursor
        frames = alloc.allocate_contiguous(512, align=512)
        assert frames[0] % 512 == 0
        assert frames == list(range(frames[0], frames[0] + 512))

    def test_contiguous_out_of_memory(self):
        alloc = FrameAllocator(total_frames=100)
        with pytest.raises(OutOfMemory):
            alloc.allocate_contiguous(512, align=512)


class TestKernelBasics:
    def test_create_process_assigns_asid(self, kernel):
        a = kernel.create_process()
        b = kernel.create_process()
        assert a.asid != b.asid
        assert a.pid in kernel.processes

    def test_mmap_maps_and_fills(self, kernel):
        process = kernel.create_process()
        frames = kernel.mmap(process, 0x100, 2, fill=b"zz")
        assert len(frames) == 2
        data, _ = kernel.system.read(process.asid, 0x100 * PAGE_SIZE, 2)
        assert data == b"zz"

    def test_mmap_rejects_overlap(self, kernel, process):
        with pytest.raises(ValueError):
            kernel.mmap(process, 0x100, 1)

    def test_munmap_releases_frames(self, kernel, process):
        in_use = kernel.allocator.frames_in_use
        kernel.munmap(process, 0x100, 8)
        assert kernel.allocator.frames_in_use == in_use - 8
        assert process.mapped_pages == 0

    def test_memory_marker_accounting(self, kernel):
        marker = kernel.memory_marker()
        process = kernel.create_process()
        kernel.mmap(process, 0x100, 3)
        assert kernel.additional_memory_since(marker) == 3 * PAGE_SIZE

    def test_oms_pages_come_from_the_frame_pool(self, kernel):
        """The OS grants the controller OMS pages (Section 4.4.3)."""
        assert kernel.allocator.frames_in_use >= 16  # the startup grant


class TestFork:
    def test_child_shares_frames_cow(self, kernel, process):
        child = kernel.fork(process)
        assert child.mappings == process.mappings
        for vpn, ppn in child.mappings.items():
            assert kernel.allocator.refcount(ppn) == 2
            for proc in (process, child):
                pte = proc.page_table.entry(vpn)
                assert pte.cow and not pte.writable

    def test_fork_consumes_no_frames(self, kernel, process):
        before = kernel.allocator.frames_in_use
        kernel.fork(process)
        assert kernel.allocator.frames_in_use == before

    def test_child_reads_parent_data(self, kernel, process):
        child = kernel.fork(process)
        data, _ = kernel.system.read(child.asid, 0x100 * PAGE_SIZE, 2)
        assert data == b"fx"

    def test_fork_stats(self, kernel, process):
        kernel.fork(process)
        assert kernel.stats.forks == 1
        assert kernel.stats.pages_shared_on_fork == 8


class TestCopyOnWritePolicy:
    def test_write_breaks_sharing(self, kernel, forked):
        parent, child = forked
        kernel.install_cow_policy(CopyOnWritePolicy(kernel))
        kernel.system.write(child.asid, 0x100 * PAGE_SIZE, b"CHILD!")
        parent_data, _ = kernel.system.read(parent.asid,
                                            0x100 * PAGE_SIZE, 6)
        child_data, _ = kernel.system.read(child.asid,
                                           0x100 * PAGE_SIZE, 6)
        assert child_data == b"CHILD!"
        assert parent_data == b"fxfxfx"
        assert child.mappings[0x100] != parent.mappings[0x100]

    def test_copy_consumes_a_frame(self, kernel, forked):
        parent, child = forked
        kernel.install_cow_policy(CopyOnWritePolicy(kernel))
        before = kernel.allocator.frames_in_use
        kernel.system.write(child.asid, 0x100 * PAGE_SIZE, b"x")
        assert kernel.allocator.frames_in_use == before + 1

    def test_copy_preserves_rest_of_page(self, kernel, forked):
        parent, child = forked
        kernel.install_cow_policy(CopyOnWritePolicy(kernel))
        kernel.system.write(child.asid, 0x100 * PAGE_SIZE + 100, b"Y")
        page = kernel.system.page_bytes(child.asid, 0x100)
        reference = bytearray(kernel.system.page_bytes(parent.asid, 0x100))
        reference[100:101] = b"Y"
        assert page == bytes(reference)

    def test_sole_owner_keeps_frame_without_fault(self, kernel, forked):
        parent, child = forked
        policy = CopyOnWritePolicy(kernel)
        kernel.install_cow_policy(policy)
        kernel.system.write(child.asid, 0x100 * PAGE_SIZE, b"a")
        # Parent is now the sole owner of the original frame: its next
        # write must not copy again.
        kernel.system.write(parent.asid, 0x100 * PAGE_SIZE, b"b")
        assert policy.stats.page_copies == 1

    def test_second_write_no_second_copy(self, kernel, forked):
        parent, child = forked
        policy = CopyOnWritePolicy(kernel)
        kernel.install_cow_policy(policy)
        kernel.system.write(child.asid, 0x100 * PAGE_SIZE, b"a")
        kernel.system.write(child.asid, 0x100 * PAGE_SIZE + 64, b"b")
        assert policy.stats.page_copies == 1

    def test_copy_stats(self, kernel, forked):
        parent, child = forked
        policy = CopyOnWritePolicy(kernel)
        kernel.install_cow_policy(policy)
        kernel.system.write(child.asid, 0x100 * PAGE_SIZE, b"a")
        assert policy.stats.bytes_copied == PAGE_SIZE
        assert policy.stats.copy_cycles > 0
        assert policy.stats.shootdown_cycles > 0
        assert kernel.stats.cow_breaks == 1


def users(asid, *vpns):
    """*vpns* of *asid* as ``Kernel.frame_users`` names them."""
    return {asid << VPN_BITS | vpn for vpn in vpns}


class TestFrameUsers:
    """``frame_users`` names each mapping of a frame by one int, and a
    frame no mapping uses has no entry."""

    def test_mmap_and_fork_record_every_mapping(self, kernel, forked):
        parent, child = forked
        for vpn, ppn in parent.mappings.items():
            assert kernel.frame_users[ppn] == (users(parent.asid, vpn)
                                               | users(child.asid, vpn))

    def test_munmap_drops_the_entry_of_a_freed_frame(self, kernel, process):
        ppn = process.mappings[0x100]
        kernel.munmap(process, 0x100, 1)
        assert ppn not in kernel.frame_users

    def test_cow_write_after_the_child_exits_leaves_no_entry(self, kernel,
                                                              forked):
        """The parent is the last user when it copies; the old frame is
        freed and keeps no (empty) entry."""
        parent, child = forked
        kernel.install_cow_policy(CopyOnWritePolicy(kernel))
        old = parent.mappings[0x100]
        kernel.exit_process(child)
        assert kernel.frame_users[old] == users(parent.asid, 0x100)
        kernel.system.write(parent.asid, 0x100 * PAGE_SIZE, b"P")
        new = parent.mappings[0x100]
        assert new != old
        assert kernel.allocator.refcount(old) == 0
        assert old not in kernel.frame_users
        assert kernel.frame_users[new] == users(parent.asid, 0x100)

    def test_cow_write_moves_one_mapping(self, kernel, forked):
        parent, child = forked
        kernel.install_cow_policy(CopyOnWritePolicy(kernel))
        old = parent.mappings[0x101]
        kernel.system.write(child.asid, 0x101 * PAGE_SIZE, b"C")
        assert kernel.frame_users[old] == users(parent.asid, 0x101)
        assert (kernel.frame_users[child.mappings[0x101]]
                == users(child.asid, 0x101))
        # The parent, the sole remaining sharer, lost its CoW protection.
        pte = parent.page_table.entry(0x101)
        assert pte.writable and not pte.cow

    def test_dedup_remap_frees_the_old_frame_entry(self, kernel):
        a = kernel.create_process()
        b = kernel.create_process()
        kernel.mmap(a, 0x10, 1, fill=b"dup")
        kernel.mmap(b, 0x20, 1, fill=b"dup")
        old, base = b.mappings[0x20], a.mappings[0x10]
        DeduplicationManager(kernel).deduplicate([(a.asid, 0x10),
                                                  (b.asid, 0x20)])
        assert b.mappings[0x20] == base
        assert old not in kernel.frame_users
        assert kernel.frame_users[base] == (users(a.asid, 0x10)
                                            | users(b.asid, 0x20))
