"""Unit tests for the overlay-aware two-level TLB."""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.core.obitvector import OBitVector
from repro.core.page_table import PTE
from repro.core.tlb import TLB, TLBEntry, _SetAssociativeArray


def make_tlb(**kwargs):
    """A TLB with Table 2's latencies, passed explicitly as the machine
    does."""
    return TLB(l1_latency=DEFAULT_CONFIG.l1_tlb_latency,
               l2_latency=DEFAULT_CONFIG.l2_tlb_latency,
               miss_latency=DEFAULT_CONFIG.tlb_miss_latency, **kwargs)


def fill(tlb, asid, vpn, ppn=0x99, lines=()):
    return tlb.fill(asid, vpn, PTE(ppn=ppn), OBitVector.from_lines(lines))


class TestLookup:
    def test_miss_costs_miss_latency(self):
        tlb = make_tlb()
        entry, latency = tlb.lookup(1, 0x10)
        assert entry is None
        assert latency == tlb.miss_latency
        assert tlb.stats.misses == 1

    def test_l1_hit_after_fill(self):
        tlb = make_tlb()
        fill(tlb, 1, 0x10)
        entry, latency = tlb.lookup(1, 0x10)
        assert entry is not None
        assert latency == tlb.l1_latency
        assert tlb.stats.l1_hits == 1

    def test_l2_hit_promotes_to_l1(self):
        tlb = make_tlb(l1_entries=4, l1_ways=4)
        # Fill 5 entries mapping to the same L1 set pressure.
        for vpn in range(5):
            fill(tlb, 1, vpn * 4)  # same L1 set (one set only)
        # The earliest entry fell out of L1 but remains in L2.
        entry, latency = tlb.lookup(1, 0)
        assert entry is not None
        assert latency == tlb.l1_latency + tlb.l2_latency
        assert tlb.stats.l2_hits == 1
        # Promoted: next lookup is an L1 hit.
        _, latency = tlb.lookup(1, 0)
        assert latency == tlb.l1_latency

    def test_different_asids_do_not_alias(self):
        tlb = make_tlb()
        fill(tlb, 1, 0x10, ppn=0xA)
        fill(tlb, 2, 0x10, ppn=0xB)
        assert tlb.lookup(1, 0x10)[0].pte.ppn == 0xA
        assert tlb.lookup(2, 0x10)[0].pte.ppn == 0xB

    def test_obitvector_is_copied_on_fill(self):
        tlb = make_tlb()
        source = OBitVector.from_lines([1])
        tlb.fill(1, 0x10, PTE(ppn=1), source)
        source.set(2)
        entry, _ = tlb.lookup(1, 0x10)
        assert not entry.obitvector.is_set(2)

    def test_miss_rate(self):
        tlb = make_tlb()
        tlb.lookup(1, 0x10)
        fill(tlb, 1, 0x10)
        tlb.lookup(1, 0x10)
        assert (tlb.stats.misses, tlb.stats.accesses) == (1, 2)


class TestCoherence:
    def test_snoop_sets_single_bit(self):
        """Section 4.3.3: a snoop updates one OBitVector bit, nothing else."""
        tlb = make_tlb()
        fill(tlb, 1, 0x10, lines=[3])
        assert tlb.snoop_overlaying_write(1, 0x10, 7)
        entry = tlb.cached_entry(1, 0x10)
        assert entry.obitvector.is_set(3)
        assert entry.obitvector.is_set(7)
        assert tlb.stats.snoop_updates == 1

    def test_snoop_without_entry_is_noop(self):
        tlb = make_tlb()
        assert not tlb.snoop_overlaying_write(1, 0x10, 7)

    def test_snoop_commit_clears_vector(self):
        tlb = make_tlb()
        fill(tlb, 1, 0x10, lines=[1, 2, 3])
        assert tlb.snoop_commit(1, 0x10)
        assert tlb.cached_entry(1, 0x10).obitvector.is_empty()

    def test_shootdown_invalidates_both_levels(self):
        tlb = make_tlb()
        fill(tlb, 1, 0x10)
        assert tlb.shootdown(1, 0x10)
        entry, latency = tlb.lookup(1, 0x10)
        assert entry is None
        assert tlb.stats.shootdowns == 1

    def test_shootdown_missing_entry_returns_false(self):
        tlb = make_tlb()
        assert not tlb.shootdown(1, 0x10)

    def test_flush(self):
        tlb = make_tlb()
        fill(tlb, 1, 0x10)
        tlb.flush()
        assert tlb.cached_entry(1, 0x10) is None


class TestReplacement:
    def test_lru_within_set(self):
        array = _SetAssociativeArray(entries=2, ways=2)
        a = TLBEntry(asid=0, vpn=0, pte=PTE(ppn=0))
        b = TLBEntry(asid=0, vpn=2, pte=PTE(ppn=1))
        c = TLBEntry(asid=0, vpn=4, pte=PTE(ppn=2))
        array.insert(a)
        array.insert(b)
        array.lookup((0, 0))    # touch a; b becomes LRU
        victim = array.insert(c)
        assert victim is b

    def test_reinsert_same_key_replaces(self):
        array = _SetAssociativeArray(entries=4, ways=2)
        array.insert(TLBEntry(asid=0, vpn=0, pte=PTE(ppn=1)))
        victim = array.insert(TLBEntry(asid=0, vpn=0, pte=PTE(ppn=2)))
        assert victim is None
        assert array.lookup((0, 0)).pte.ppn == 2

    def test_associativity_must_divide(self):
        with pytest.raises(ValueError):
            _SetAssociativeArray(entries=5, ways=2)

    def test_capacity_eviction_only_within_set(self):
        tlb = make_tlb(l1_entries=8, l1_ways=2, l2_entries=16, l2_ways=2)
        for vpn in range(64):
            fill(tlb, 1, vpn)
        # Entries survive somewhere; no crash, bounded occupancy.
        survivors = sum(1 for vpn in range(64)
                        if tlb.cached_entry(1, vpn) is not None)
        assert 0 < survivors <= 24
