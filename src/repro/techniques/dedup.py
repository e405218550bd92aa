"""Technique 3: fine-grained deduplication (Section 5.3.1).

The Difference Engine [23] observation: across processes/VMs many pages
contain *mostly* the same data.  Software patching makes accessing such
pages slow; HICAMP [11] redesigns the whole memory system.  With
overlays, similar pages simply share one base physical page, and each
page's differing cache lines live in its overlay — accesses need no
software patching because the overlay semantics apply the "patch" on
every access, transparently.

:class:`DeduplicationManager` scans mapped pages, clusters candidates by
sampled line hashes, and deduplicates any page whose distance to the
cluster's base page is at most ``max_diff_lines`` cache lines.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..core.address import LINES_PER_PAGE


@dataclass
class DedupStats:
    pages_scanned: int = 0
    pages_deduplicated: int = 0
    frames_freed: int = 0
    overlay_lines_created: int = 0


class DeduplicationManager:
    """Difference-engine-style dedup over the overlay framework."""

    def __init__(self, kernel, max_diff_lines: int = 16,
                 sample_lines: Tuple[int, ...] = (0, 21, 42, 63)):
        if not 0 <= max_diff_lines <= LINES_PER_PAGE:
            raise ValueError("max_diff_lines must be within 0..64")
        self.kernel = kernel
        self.max_diff_lines = max_diff_lines
        self.sample_lines = sample_lines
        self.stats = DedupStats()
        #: base ppn -> list of (asid, vpn) deduplicated onto it.
        self.families: Dict[int, List[Tuple[int, int]]] = {}

    # -- scanning ---------------------------------------------------------------

    def _page_lines(self, asid: int, vpn: int) -> List[bytes]:
        system = self.kernel.system
        return [system.line_bytes(asid, vpn, line)
                for line in range(LINES_PER_PAGE)]

    def _signature(self, lines: List[bytes]) -> bytes:
        hasher = hashlib.sha1()
        for index in self.sample_lines:
            hasher.update(lines[index])
        return hasher.digest()

    @staticmethod
    def _diff_lines(lines: List[bytes], base_lines: List[bytes]) -> List[int]:
        return [i for i in range(LINES_PER_PAGE)
                if lines[i] != base_lines[i]]

    # -- the dedup pass ----------------------------------------------------------

    def deduplicate(self, pages: List[Tuple[int, int]]) -> int:
        """Deduplicate among ``[(asid, vpn), ...]``; returns pages merged.

        The first page of each similarity cluster becomes the base; later
        pages that differ in at most ``max_diff_lines`` lines are remapped
        onto the base frame with their differences as overlay lines.
        """
        system = self.kernel.system
        clusters: Dict[bytes, Tuple[int, int, List[bytes]]] = {}
        merged = 0
        for asid, vpn in pages:
            self.stats.pages_scanned += 1
            lines = self._page_lines(asid, vpn)
            signature = self._signature(lines)
            if signature not in clusters:
                clusters[signature] = (asid, vpn, lines)
                continue
            base_asid, base_vpn, base_lines = clusters[signature]
            diff = self._diff_lines(lines, base_lines)
            if len(diff) > self.max_diff_lines:
                continue
            self._merge(asid, vpn, lines, base_asid, base_vpn, diff)
            merged += 1
        return merged

    def _merge(self, asid: int, vpn: int, lines: List[bytes],
               base_asid: int, base_vpn: int, diff: List[int]) -> None:
        system = self.kernel.system
        base_ppn = system.page_tables[base_asid].entry(base_vpn).ppn
        old_ppn = system.page_tables[asid].entry(vpn).ppn
        if old_ppn == base_ppn:
            return  # already sharing the same frame

        # Remap onto the base frame, copy-on-write so later divergence
        # lands in the overlay too.
        self.kernel.allocator.share(base_ppn)
        system.update_mapping(asid, vpn, ppn=base_ppn, cow=True,
                              writable=False)
        system.update_mapping(base_asid, base_vpn, cow=True, writable=False)

        # Differences become overlay lines of the deduplicated page.
        for line in diff:
            system.install_overlay_line(asid, vpn, line, lines[line])
            self.stats.overlay_lines_created += 1

        if self.kernel.move_mapping(asid, vpn, old_ppn, base_ppn) == 0:
            self.stats.frames_freed += 1
        self.families.setdefault(base_ppn, []).append((asid, vpn))
        self.stats.pages_deduplicated += 1
