"""A finished machine is freed by reference counting.

Nothing inside a machine points back at its owner: the OMS page source
is a plain function over the kernel's frame allocator (a frame counter
on a bare system), and the copy-on-write policies hold their kernel
through a weak proxy.  So dropping the last reference to a kernel or a
bare system frees the whole machine at once, with the cyclic garbage
collector switched off.
"""

import gc
import weakref

import pytest

from repro.core.address import PAGE_SIZE
from repro.core.framework import OverlaySystem
from repro.core.oms import counter_page_source
from repro.osmodel.cow import CopyOnWritePolicy
from repro.osmodel.kernel import Kernel
from repro.techniques.overlay_on_write import OverlayOnWritePolicy

PAGES = 4
BASE_VPN = 0x100


@pytest.fixture
def no_cyclic_gc():
    """Run the test with the cyclic garbage collector off."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def forked_kernel(policy_class):
    """A kernel whose OMS starts with no pages, a forked process, and a
    write to every shared page of the child under *policy_class*; the
    dirty lines are then flushed, so overlay lines reach the OMS."""
    kernel = Kernel(oms_initial_pages=0)
    parent = kernel.create_process()
    kernel.mmap(parent, BASE_VPN, PAGES, fill=b"fx")
    child = kernel.fork(parent)
    policy = policy_class(kernel)
    kernel.install_cow_policy(policy)
    for page in range(PAGES):
        kernel.system.write(child.asid, (BASE_VPN + page) * PAGE_SIZE + 64,
                            b"written")
    kernel.system.hierarchy.flush_dirty()
    return kernel, policy


class TestMachineLifetime:
    def test_copy_on_write_machine_is_freed(self, no_cyclic_gc):
        kernel, policy = forked_kernel(CopyOnWritePolicy)
        assert policy.stats.page_copies == PAGES   # copy_page_via_cache ran
        machine = weakref.ref(kernel.system)
        del kernel
        assert machine() is None

    def test_overlay_on_write_machine_is_freed(self, no_cyclic_gc):
        kernel, policy = forked_kernel(OverlayOnWritePolicy)
        system = kernel.system
        assert policy.stats.overlaying_writes == PAGES
        assert system.stats.overlaying_writes == PAGES
        # The OMS asked the kernel for pages to hold the flushed lines.
        assert system.oms.stats.os_page_requests >= 1
        machine = weakref.ref(system)
        del kernel, system
        assert machine() is None

    def test_policies_do_not_keep_their_kernel_alive(self, no_cyclic_gc):
        kernel = Kernel()
        policies = [CopyOnWritePolicy(kernel), OverlayOnWritePolicy(kernel)]
        owner = weakref.ref(kernel)
        del kernel
        assert owner() is None
        with pytest.raises(ReferenceError):
            policies[0].kernel.allocator

    def test_bare_system_is_freed(self, no_cyclic_gc):
        system = OverlaySystem(oms_initial_pages=0)
        system.map_page(1, BASE_VPN, 0x42, writable=False, cow=True)
        system.write(1, BASE_VPN * PAGE_SIZE, b"overlaid")
        system.hierarchy.flush_dirty()
        assert system.stats.overlaying_writes == 1
        assert system.oms.stats.os_page_requests >= 1
        machine = weakref.ref(system)
        del system
        assert machine() is None


class TestCounterPageSource:
    def test_hands_out_consecutive_frames(self):
        pages = counter_page_source(7)
        assert pages(2) == [7 * PAGE_SIZE, 8 * PAGE_SIZE]
        assert pages(1) == [9 * PAGE_SIZE]
