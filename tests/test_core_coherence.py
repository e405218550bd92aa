"""Unit tests for TLB/OMT coherence (Section 4.3.3)."""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.core.address import overlay_page_number
from repro.core.coherence import CoherenceNetwork
from repro.core.obitvector import OBitVector
from repro.core.omt import OMTEntry
from repro.core.page_table import PTE
from repro.core.tlb import TLB


def make_tlb(**kwargs):
    """A TLB with Table 2's latencies, passed explicitly as the machine
    does."""
    return TLB(l1_latency=DEFAULT_CONFIG.l1_tlb_latency,
               l2_latency=DEFAULT_CONFIG.l2_tlb_latency,
               miss_latency=DEFAULT_CONFIG.tlb_miss_latency, **kwargs)


def network_with_tlbs(count=2):
    tlbs = [make_tlb() for _ in range(count)]
    return CoherenceNetwork(tlbs=tlbs), tlbs


class TestOverlayingReadExclusive:
    def test_updates_every_caching_tlb(self):
        net, tlbs = network_with_tlbs(3)
        for tlb in tlbs[:2]:
            tlb.fill(5, 0x10, PTE(ppn=1), OBitVector())
        opn = overlay_page_number(5, 0x10)
        entry = OMTEntry(opn=opn)
        latency = net.overlaying_read_exclusive(opn, 7, entry)
        assert latency >= net.message_latency
        for tlb in tlbs[:2]:
            assert tlb.cached_entry(5, 0x10).obitvector.is_set(7)
        assert tlbs[2].cached_entry(5, 0x10) is None
        assert entry.obitvector.is_set(7)
        assert net.stats.tlb_entries_updated == 2

    def test_remap_port_serializes_back_to_back_messages(self):
        net, _ = network_with_tlbs(1)
        opn = overlay_page_number(1, 0x10)
        first = net.overlaying_read_exclusive(opn, 0, now=1000)
        second = net.overlaying_read_exclusive(opn, 1, now=1000)
        assert first == net.message_latency
        assert second == 2 * net.message_latency  # queued behind the first

    def test_port_drains_over_time(self):
        net, _ = network_with_tlbs(1)
        opn = overlay_page_number(1, 0x10)
        net.overlaying_read_exclusive(opn, 0, now=0)
        later = net.overlaying_read_exclusive(opn, 1,
                                              now=10 * net.message_latency)
        assert later == net.message_latency

    def test_much_cheaper_than_shootdown(self):
        net, _ = network_with_tlbs(1)
        opn = overlay_page_number(1, 0x10)
        assert (net.overlaying_read_exclusive(opn, 0)
                < net.shootdown(1, 0x10) / 10)


class TestCommitBroadcast:
    def test_clears_vectors_everywhere(self):
        net, tlbs = network_with_tlbs(2)
        for tlb in tlbs:
            tlb.fill(5, 0x10, PTE(ppn=1), OBitVector.from_lines([1, 2]))
        opn = overlay_page_number(5, 0x10)
        entry = OMTEntry(opn=opn, obitvector=OBitVector.from_lines([1, 2]))
        net.broadcast_commit(opn, entry)
        for tlb in tlbs:
            assert tlb.cached_entry(5, 0x10).obitvector.is_empty()
        assert entry.obitvector.is_empty()


class TestShootdown:
    def test_invalidates_everywhere(self):
        net, tlbs = network_with_tlbs(2)
        for tlb in tlbs:
            tlb.fill(5, 0x10, PTE(ppn=1), OBitVector())
        latency = net.shootdown(5, 0x10)
        assert latency == net.shootdown_latency
        for tlb in tlbs:
            assert tlb.cached_entry(5, 0x10) is None
        assert net.stats.shootdowns == 1
