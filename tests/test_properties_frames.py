"""Hypothesis property test of the kernel's frame bookkeeping.

The page tables are the one record of which frame each page maps to,
and ``Kernel.frame_users`` the one record of which pages map a frame.
Random sequences of ``mmap``, ``fork``, copy-on-write and
overlay-on-write stores (with promotions), ``munmap``, ``exit_process``
and deduplication must keep the two in step after every operation, and
must free a frame exactly when its last mapping goes.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.address import LINE_SIZE, PAGE_SIZE
from repro.osmodel.cow import CopyOnWritePolicy
from repro.osmodel.kernel import VPN_BITS, Kernel
from repro.techniques.dedup import DeduplicationManager
from repro.techniques.overlay_on_write import OverlayOnWritePolicy

pytestmark = pytest.mark.slow

PAGES = 4
BASE_VPN = 0x100
OMS_INITIAL_PAGES = 16
MAX_PROCESSES = 6

process_index = st.integers(0, MAX_PROCESSES - 1)
page = st.integers(0, 2 * PAGES - 1)

operations = st.lists(st.one_of(
    st.tuples(st.just("mmap"), process_index, page),
    st.tuples(st.just("fork"), process_index),
    st.tuples(st.just("write"), process_index, page, st.integers(0, 63),
              st.sampled_from(["cow", "oow"])),
    st.tuples(st.just("munmap"), process_index, page),
    st.tuples(st.just("exit"), process_index),
    st.tuples(st.just("dedup")),
), min_size=1, max_size=30)


def expected_users(kernel):
    """ppn -> every 4KB mapping of it, read from the page tables."""
    users = {}
    for asid, table in kernel.system.page_tables.items():
        for vpn in table.mapped_vpns():
            users.setdefault(table.entry(vpn).ppn, set()).add(
                asid << VPN_BITS | vpn)
    return users


def check(kernel):
    assert kernel.frame_users == expected_users(kernel)
    assert all(kernel.frame_users.values()), "a frame kept an empty entry"
    # Live frames: the OMS's pages plus one per frame some page maps.
    oms_pages = OMS_INITIAL_PAGES + kernel.system.oms.stats.os_page_requests
    assert (kernel.allocator.frames_in_use
            == oms_pages + len(kernel.frame_users))


def apply(kernel, live, op):
    kind = op[0]
    if kind == "dedup":
        DeduplicationManager(kernel).deduplicate([
            (process.asid, vpn) for process in live
            for vpn in process.page_table.mapped_vpns()])
        return
    if not live:
        process = kernel.create_process()
        kernel.mmap(process, BASE_VPN, PAGES, fill=b"fp")
        live.append(process)
    process = live[op[1] % len(live)]
    table = process.page_table
    if kind == "fork":
        if len(live) < MAX_PROCESSES:
            live.append(kernel.fork(process))
    elif kind == "exit":
        kernel.exit_process(process)
        live.remove(process)
    else:
        vpn = BASE_VPN + op[2]
        mapped = table.entry(vpn) is not None
        if kind == "mmap" and not mapped:
            kernel.mmap(process, vpn, 1, fill=b"fp")
        elif kind == "munmap":
            kernel.munmap(process, vpn, 1)
        elif kind == "write" and mapped:
            kernel.install_cow_policy(
                CopyOnWritePolicy(kernel) if op[4] == "cow" else
                OverlayOnWritePolicy(kernel, promote_threshold=3))
            kernel.system.write(process.asid,
                                vpn * PAGE_SIZE + op[3] * LINE_SIZE, b"w")


class TestFrameUsers:
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(operations)
    def test_page_tables_and_frame_users_agree(self, ops):
        kernel = Kernel(oms_initial_pages=OMS_INITIAL_PAGES)
        parent = kernel.create_process()
        kernel.mmap(parent, BASE_VPN, PAGES, fill=b"fp")
        live = [parent]
        check(kernel)
        for op in ops:
            apply(kernel, live, op)
            check(kernel)
