"""Shared statistics containers for the memory hierarchy."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CacheStats:
    """Hit/miss/writeback counters for one cache level."""

    name: str = ""
    hits: int = 0
    misses: int = 0
    fills: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    prefetch_fills: int = 0
    prefetch_hits: int = 0
    invalidations: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.accesses
        return self.hits / total if total else 0.0


@dataclass
class DRAMStats:
    """Counters for the DRAM model."""

    reads: int = 0
    writes: int = 0
    row_hits: int = 0
    row_misses: int = 0
    write_drains: int = 0
    write_buffer_peak: int = 0
    busy_cycles: int = 0

    @property
    def accesses(self) -> int:
        return self.reads + self.writes
