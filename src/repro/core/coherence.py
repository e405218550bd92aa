"""TLB/OMT coherence via the cache-coherence network — Section 4.3.3.

The paper's third design challenge: TLBs cache the ``OBitVector``, so a
single-line remap (physical page -> overlay) must reach every TLB that
caches the page's mapping.  A page-granularity TLB shootdown would do, but
shootdowns cost thousands of cycles (interrupts, IPIs [6, 40, 52, 54]).

The paper instead rides the cache coherence protocol, exploiting that
(i) only one cache line's mapping changes, (ii) the overlay page address
uniquely identifies the virtual page (no overlay sharing), and (iii) the
overlay address is a physical address, hence already part of the
coherence network.  A new message, **overlaying read exclusive**, carries
the overlay line address; each core that caches the mapping sets one
OBitVector bit, and the memory controller updates the OMT entry.

:class:`CoherenceNetwork` is that broadcast fabric.  It also implements
the baseline shootdown so experiments can compare both (the
remap-mechanism ablation of ``python -m repro ablations``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .address import decompose_overlay_address, page_address
from .omt import OMTEntry
from .tlb import TLB
from ..config import DEFAULT_CONFIG, SystemConfig
from ..engine.component import Component
from ..engine.tracing import HOOKS


@dataclass
class CoherenceStats:
    overlaying_read_exclusive_messages: int = 0
    commit_broadcasts: int = 0
    shootdowns: int = 0
    tlb_entries_updated: int = 0


class CoherenceNetwork(Component):
    """Broadcast fabric connecting the per-core TLBs and the OMT.

    ``tlbs`` is every TLB in the system; the memory controller registers
    itself implicitly by passing OMT entries into the broadcast calls.
    """

    def __init__(self, tlbs: Optional[List[TLB]] = None,
                 config: Optional[SystemConfig] = None,
                 parent: Optional[Component] = None):
        super().__init__("coherence", parent=parent)
        config = config or DEFAULT_CONFIG
        self.tlbs: List[TLB] = tlbs if tlbs is not None else []
        #: Cycles for the *overlaying read exclusive* round trip: the
        #: store cannot commit until the single-line remap is globally
        #: visible, so the broadcast plus the farthest acknowledgement
        #: land on the critical path.  A cache-to-cache-transfer-class
        #: latency — still 40x cheaper than the IPI-based shootdown it
        #: replaces.
        self.message_latency = config.overlay_read_exclusive_latency
        #: Cycles for an IPI-based TLB shootdown; prior work measures
        #: several thousand cycles per shootdown [40, 54].
        self.shootdown_latency = config.tlb_shootdown_latency
        self.stats = CoherenceStats()
        self.stats_scope.own_block(self.stats)
        #: The remap port at the memory controller handles one remap at
        #: a time; back-to-back remaps queue here (a structural hazard
        #: that limits the MLP of bursts of overlaying writes — part of
        #: why clustered writers like cactus slightly favour the bulk
        #: page copy).
        self._port_busy_until = 0

    # -- the new message (Section 4.3.3) ------------------------------------

    def overlaying_read_exclusive(self, overlay_page: int, line: int,
                                  omt_entry: Optional[OMTEntry] = None,
                                  now: int = 0) -> int:
        """Broadcast a single-line remap; returns the latency in cycles.

        *overlay_page* is the OPN whose line *line* just moved into the
        overlay.  Because no two virtual pages share an overlay page
        (Section 4.1), the OPN alone identifies the (ASID, VPN) pair every
        TLB should check.  Remap round trips serialize at the controller's
        OMT-update port, so the returned latency includes any queueing
        behind an in-flight remap.
        """
        asid, vaddr = decompose_overlay_address(page_address(overlay_page))
        vpn = vaddr >> 12
        self.stats.overlaying_read_exclusive_messages += 1
        # Fault-injection site: the broadcast can be lost (no TLB or OMT
        # ever hears about the remap) or delayed on the network.
        deliver, extra = True, 0
        if HOOKS.faults is not None:
            deliver, extra = HOOKS.faults.filter_coherence(
                "overlaying_read_exclusive", overlay_page, line)
        if deliver:
            for tlb in self.tlbs:
                if tlb.snoop_overlaying_write(asid, vpn, line):
                    self.stats.tlb_entries_updated += 1
            if omt_entry is not None:
                omt_entry.obitvector.set(line)
        start = max(now, self._port_busy_until)
        done = start + self.message_latency + extra
        self._port_busy_until = done
        if HOOKS.active is not None:
            HOOKS.active.emit(now, "coherence", "overlaying_read_exclusive",
                              {"opn": overlay_page, "line": line,
                               "latency": done - now})
        return done - now

    def broadcast_commit(self, overlay_page: int,
                         omt_entry: Optional[OMTEntry] = None) -> int:
        """Clear OBitVectors everywhere when an overlay is promoted."""
        asid, vaddr = decompose_overlay_address(page_address(overlay_page))
        vpn = vaddr >> 12
        self.stats.commit_broadcasts += 1
        # Fault-injection site: a lost commit broadcast leaves stale set
        # bits in TLB copies after the overlay is gone.
        deliver, extra = True, 0
        if HOOKS.faults is not None:
            deliver, extra = HOOKS.faults.filter_coherence(
                "commit", overlay_page, -1)
        if deliver:
            for tlb in self.tlbs:
                if tlb.snoop_commit(asid, vpn):
                    self.stats.tlb_entries_updated += 1
            if omt_entry is not None:
                omt_entry.obitvector.clear_all()
        if HOOKS.active is not None:
            HOOKS.active.emit(None, "coherence", "broadcast_commit",
                              {"opn": overlay_page,
                               "latency": self.message_latency + extra})
        return self.message_latency + extra

    # -- the baseline it replaces -------------------------------------------

    def shootdown(self, asid: int, vpn: int) -> int:
        """Page-granularity TLB shootdown; returns its (large) latency."""
        self.stats.shootdowns += 1
        for tlb in self.tlbs:
            tlb.shootdown(asid, vpn)
        if HOOKS.active is not None:
            HOOKS.active.emit(None, "coherence", "shootdown",
                              {"asid": asid, "vpn": vpn,
                               "latency": self.shootdown_latency})
        return self.shootdown_latency
