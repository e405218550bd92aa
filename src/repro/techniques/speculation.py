"""Technique 5: virtualizing speculation (Section 5.3.3).

Hardware speculation schemes (thread-level speculation, transactional
memory) traditionally buffer speculative updates in the cache, so the
eviction of a single speculatively-modified line aborts the speculation.
With overlays, speculative updates go to the page's overlay instead: an
evicted speculative line simply lands in the Overlay Memory Store, so
speculation is bounded by main memory, not by cache capacity
("potentially unbounded speculation" [2]).  Success commits the overlay;
failure discards it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Set

from ..core.address import page_number


class SpeculationError(RuntimeError):
    """Raised on invalid speculation lifecycle transitions."""


@dataclass
class SpeculationStats:
    begun: int = 0
    committed: int = 0
    aborted: int = 0
    speculative_lines_peak: int = 0


class SpeculationContext:
    """One speculative region over a process's address space.

    Usage::

        spec = SpeculationContext(kernel, process)
        spec.begin()
        ... speculative stores through kernel.system.write(...) ...
        spec.commit()   # or spec.abort()

    While the context is open, every page is in overlay-capture mode so
    stores become overlaying writes.  ``abort`` discards every overlay,
    restoring pre-speculation memory exactly; ``commit`` folds the
    overlays into the physical pages.
    """

    def __init__(self, kernel, process):
        self.kernel = kernel
        self.process = process
        self.stats = SpeculationStats()
        self._open = False
        self._touched_vpns: Set[int] = set()

    @property
    def is_open(self) -> bool:
        return self._open

    # -- lifecycle ----------------------------------------------------------------

    def begin(self) -> None:
        if self._open:
            raise SpeculationError("speculation already in progress")
        system = self.kernel.system
        for vpn in self.process.page_table.mapped_vpns():
            system.update_mapping(self.process.asid, vpn,
                                  cow=True, writable=False)
        self._open = True
        self._touched_vpns.clear()
        self.stats.begun += 1

    def write(self, vaddr: int, data: bytes) -> int:
        """A speculative store; returns its latency."""
        if not self._open:
            raise SpeculationError("no speculation in progress")
        latency = self.kernel.system.write(self.process.asid, vaddr, data)
        # A store spanning a page boundary touches every page it covers;
        # recording only the first would leave the tail page's overlay
        # alive across an abort (memory would not revert).
        last = page_number(vaddr + max(len(data), 1) - 1)
        for vpn in range(page_number(vaddr), last + 1):
            self._touched_vpns.add(vpn)
        self._note_peak()
        return latency

    def _note_peak(self) -> None:
        total = sum(self.kernel.system.overlay_line_count(self.process.asid, vpn)
                    for vpn in self._touched_vpns)
        self.stats.speculative_lines_peak = max(
            self.stats.speculative_lines_peak, total)

    def speculative_line_count(self) -> int:
        return sum(self.kernel.system.overlay_line_count(self.process.asid, vpn)
                   for vpn in self._touched_vpns)

    def commit(self) -> int:
        """Speculation succeeded: fold every overlay into its page."""
        latency = self._close("commit")
        self.stats.committed += 1
        return latency

    def abort(self) -> int:
        """Speculation failed: discard every overlay; memory reverts."""
        latency = self._close("discard")
        self.stats.aborted += 1
        return latency

    def _close(self, action: str) -> int:
        if not self._open:
            raise SpeculationError("no speculation in progress")
        system = self.kernel.system
        latency = 0
        system.hierarchy.flush_dirty()
        for vpn in self._touched_vpns:
            if system.overlay_line_count(self.process.asid, vpn):
                latency += system.promote(self.process.asid, vpn, action)
        for vpn in self.process.page_table.mapped_vpns():
            system.update_mapping(self.process.asid, vpn,
                                  cow=False, writable=True)
        self._open = False
        return latency
