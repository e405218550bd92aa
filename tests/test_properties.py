"""Hypothesis property tests on whole-system invariants.

These drive random operation sequences against a simple reference model
(a dict of byte arrays) and assert that the overlay machinery is
observationally equivalent to flat memory — the core correctness
property everything in the paper relies on.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.core.address import LINE_SIZE, PAGE_SIZE
from repro.osmodel.cow import CopyOnWritePolicy
from repro.osmodel.kernel import Kernel
from repro.techniques.overlay_on_write import OverlayOnWritePolicy
from repro.techniques.speculation import SpeculationContext

pytestmark = pytest.mark.slow

PAGES = 4
BASE_VPN = 0x100
BASE = BASE_VPN * PAGE_SIZE

write_ops = st.lists(
    st.tuples(st.integers(0, PAGES * PAGE_SIZE - 9),   # offset
              st.binary(min_size=1, max_size=8)),      # payload
    min_size=1, max_size=40)

slow = settings(max_examples=25, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def build(policy=None):
    kernel = Kernel()
    process = kernel.create_process()
    kernel.mmap(process, BASE_VPN, PAGES, fill=b"pp")
    if policy is not None:
        kernel.install_cow_policy(policy(kernel))
    return kernel, process


def reference_image():
    return bytearray(b"pp" * (PAGES * PAGE_SIZE // 2))


def apply_to_reference(image, offset, payload):
    image[offset:offset + len(payload)] = payload


def read_all(kernel, process):
    return b"".join(kernel.system.page_bytes(process.asid, BASE_VPN + i)
                    for i in range(PAGES))


class TestMemoryEquivalence:
    @slow
    @given(write_ops)
    def test_plain_writes_match_reference(self, ops):
        kernel, process = build()
        image = reference_image()
        for offset, payload in ops:
            kernel.system.write(process.asid, BASE + offset, payload)
            apply_to_reference(image, offset, payload)
        assert read_all(kernel, process) == bytes(image)

    @slow
    @given(write_ops)
    def test_overlay_on_write_matches_reference(self, ops):
        """After a fork, the overlaying child must behave exactly like
        flat memory, while the parent's view never changes."""
        kernel, process = build(OverlayOnWritePolicy)
        child = kernel.fork(process)
        image = reference_image()
        parent_before = read_all(kernel, process)
        for offset, payload in ops:
            kernel.system.write(child.asid, BASE + offset, payload)
            apply_to_reference(image, offset, payload)
        assert read_all(kernel, child) == bytes(image)
        assert read_all(kernel, process) == parent_before

    @slow
    @given(write_ops)
    def test_copy_on_write_matches_reference(self, ops):
        kernel, process = build(CopyOnWritePolicy)
        child = kernel.fork(process)
        image = reference_image()
        for offset, payload in ops:
            kernel.system.write(child.asid, BASE + offset, payload)
            apply_to_reference(image, offset, payload)
        assert read_all(kernel, child) == bytes(image)

    @slow
    @given(write_ops)
    def test_both_policies_agree(self, ops):
        """Overlay-on-write and copy-on-write are semantically identical;
        only their cost differs."""
        results = []
        for policy in (OverlayOnWritePolicy, CopyOnWritePolicy):
            kernel, process = build(policy)
            child = kernel.fork(process)
            for offset, payload in ops:
                kernel.system.write(child.asid, BASE + offset, payload)
            results.append(read_all(kernel, child))
        assert results[0] == results[1]


class TestPromotionInvariants:
    @slow
    @given(write_ops)
    # The stream prefetcher leaves a zero-filled line of the next free
    # frame in the L3; copy-and-commit into that frame must drop it.
    @example(ops=[(13567, b"\x00\x00"), (14592, b"\x00"), (16128, b"\x00")])
    def test_flush_and_promotion_preserve_view(self, ops):
        """copy-and-commit must never change what the process observes."""
        kernel, process = build(OverlayOnWritePolicy)
        kernel.fork(process)
        for offset, payload in ops:
            kernel.system.write(process.asid, BASE + offset, payload)
        before = read_all(kernel, process)
        kernel.system.hierarchy.flush_dirty()
        for i in range(PAGES):
            if kernel.system.overlay_line_count(process.asid, BASE_VPN + i):
                new_ppn = kernel.allocator.allocate()
                kernel.system.promote(process.asid, BASE_VPN + i,
                                      "copy-and-commit", new_ppn=new_ppn)
        assert read_all(kernel, process) == before

    @slow
    @given(write_ops)
    def test_abort_is_total_rollback(self, ops):
        kernel, process = build()
        spec = SpeculationContext(kernel, process)
        before = read_all(kernel, process)
        spec.begin()
        for offset, payload in ops:
            spec.write(BASE + offset, payload)
        spec.abort()
        assert read_all(kernel, process) == before

    @slow
    @given(write_ops)
    def test_commit_equals_plain_execution(self, ops):
        committed_kernel, committed_proc = build()
        spec = SpeculationContext(committed_kernel, committed_proc)
        spec.begin()
        for offset, payload in ops:
            spec.write(BASE + offset, payload)
        spec.commit()

        plain_kernel, plain_proc = build()
        for offset, payload in ops:
            plain_kernel.system.write(plain_proc.asid, BASE + offset,
                                      payload)
        assert (read_all(committed_kernel, committed_proc)
                == read_all(plain_kernel, plain_proc))


class TestCapacityInvariants:
    @slow
    @given(write_ops)
    def test_overlay_memory_bounded_by_lines_touched(self, ops):
        """OMS consumption never exceeds one smallest segment per page
        rounded up the ladder — i.e., it tracks lines, not pages."""
        kernel, process = build(OverlayOnWritePolicy)
        kernel.fork(process)
        touched_lines = set()
        for offset, payload in ops:
            kernel.system.write(process.asid, BASE + offset, payload)
            start_line = offset // LINE_SIZE
            end_line = (offset + len(payload) - 1) // LINE_SIZE
            touched_lines.update(range(start_line, end_line + 1))
        kernel.system.hierarchy.flush_dirty()
        allocated = kernel.system.overlay_memory_allocated
        # Generous ladder bound: every touched line costs at most 256B.
        assert allocated <= max(1, len(touched_lines)) * 256
