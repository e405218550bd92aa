# simlint: hot-path
"""The Overlay Mapping Table (OMT) and its cache — Sections 4.2 and 4.4.4.

The OMT maps each page of the Overlay Address Space (identified by its
overlay page number, OPN) to:

* the ``OBitVector`` telling which cache lines are present in the overlay,
* the Overlay Memory Store address (``OMSaddr``) of the segment storing
  the overlay, and
* the segment metadata (slot pointers and free-slot vector) cached along
  with the entry.

The table is maintained entirely by the memory controller, stored
hierarchically in main memory like a page table, and fronted by a small
**OMT cache** (64 entries in the paper's Table 2 configuration; each entry
is 512 bits, so the cache is 4KB — Section 4.5).  A miss triggers an OMT
walk; a dirty entry evicted from the cache is written back to the
in-memory table.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from .obitvector import OBitVector
from .oms import Segment
from ..engine.tracing import HOOKS

#: Memory accesses charged per OMT walk.  The OMT is a 4-level
#: hierarchical table (like the page table), but the controller keeps the
#: upper levels in a small walk cache — the same optimisation page walks
#: enjoy in modern MMUs — so a walk costs two uncached accesses.
OMT_WALK_LEVELS = 2

#: Size of one OMT entry in bits (Section 4.5): 48-bit OPN + 48-bit
#: OMSaddr + 64-bit OBitVector + 320 bits of slot pointers + 32-bit free
#: vector.
OMT_ENTRY_BITS = 48 + 48 + 64 + 320 + 32


@dataclass
class OMTEntry:
    """One overlay page's mapping state.

    ``shadow`` marks an overlay used as shadow memory (Section 5.3.4):
    its segment holds metadata, and its OBitVector stays clear so the
    data path never reads it.
    """

    opn: int
    obitvector: OBitVector = field(default_factory=OBitVector)
    segment: Optional[Segment] = None
    shadow: bool = False


@dataclass
class OMTStats:
    cache_hits: int = 0
    cache_misses: int = 0
    walks: int = 0
    walk_memory_accesses: int = 0
    writebacks: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


class OverlayMappingTable:
    """The in-memory, hierarchical OMT managed by the memory controller."""

    __slots__ = ("_entries",)

    def __init__(self):
        self._entries: Dict[int, OMTEntry] = {}

    def lookup(self, opn: int) -> Optional[OMTEntry]:
        """Return the entry for *opn*, or None when no overlay exists."""
        return self._entries.get(opn)

    def ensure(self, opn: int) -> OMTEntry:
        """Return the entry for *opn*, creating an empty one if needed."""
        entry = self._entries.get(opn)
        if entry is None:
            entry = OMTEntry(opn=opn)
            self._entries[opn] = entry
        return entry

    def remove(self, opn: int) -> Optional[OMTEntry]:
        """Drop the entry for *opn* (overlay committed or discarded)."""
        return self._entries.pop(opn, None)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, opn: int) -> bool:
        return opn in self._entries

    def items(self) -> Tuple[Tuple[int, OMTEntry], ...]:
        """Every ``(opn, entry)`` pair in a deterministic order (invariant
        checking and debug dumps; never charged as memory accesses)."""
        return tuple(sorted(self._entries.items()))


class OMTCache:
    """LRU cache of recently accessed OMT entries (Ë in Figure 6).

    The cache also holds the overlay segment metadata, which in hardware is
    fetched from the head of the segment on an OMT-cache fill; here the
    metadata travels with the :class:`~repro.core.oms.Segment` object, so
    we only account for the extra memory access.
    """

    __slots__ = ("_omt", "_capacity", "_walk_levels", "_lines", "stats")

    def __init__(self, omt: OverlayMappingTable, capacity: int = 64,
                 walk_levels: int = OMT_WALK_LEVELS):
        if capacity < 0:
            raise ValueError("capacity cannot be negative")
        self._omt = omt
        self._capacity = capacity
        self._walk_levels = walk_levels
        self._lines: "OrderedDict[int, OMTEntry]" = OrderedDict()
        self.stats = OMTStats()

    @property
    def capacity(self) -> int:
        return self._capacity

    def lookup(self, opn: int, create: bool = False) -> Tuple[Optional[OMTEntry], int]:
        """Return ``(entry, memory_accesses)`` for *opn*.

        On a hit the entry costs zero memory accesses.  On a miss the
        controller performs an OMT walk (``walk_levels`` accesses) plus one
        access for the segment metadata line, inserts the entry, and may
        evict (writing back a modified entry costs one more access).  With
        ``create`` the entry is materialised when absent — used on the
        first overlaying write to a page.
        """
        if self._capacity and opn in self._lines:
            self._lines.move_to_end(opn)
            self.stats.cache_hits += 1
            return self._lines[opn], 0

        self.stats.cache_misses += 1
        accesses = self._walk_levels
        self.stats.walks += 1
        entry = self._omt.ensure(opn) if create else self._omt.lookup(opn)
        if entry is None:
            self.stats.walk_memory_accesses += accesses
            return None, accesses
        if entry.segment is not None and not entry.segment.is_direct_mapped:
            accesses += 1  # fetch the segment metadata line
        if self._capacity:
            accesses += self._insert(opn, entry)
        self.stats.walk_memory_accesses += accesses
        # Fault-injection site: the entry just crossed the memory bus in
        # an OMT walk — a transient error here flips mapping metadata.
        if HOOKS.faults is not None:
            HOOKS.faults.on_omt_walk(entry)
        return entry, accesses

    def _insert(self, opn: int, entry: OMTEntry) -> int:
        extra = 0
        if len(self._lines) >= self._capacity:
            self._lines.popitem(last=False)
            # The in-memory OMT is updated eagerly in this model (entries
            # are shared objects), but hardware writes back the evicted
            # modified entry; charge one access for it.
            self.stats.writebacks += 1
            extra = 1
        self._lines[opn] = entry
        return extra

    def invalidate(self, opn: int) -> None:
        """Drop *opn* from the cache (overlay promoted or freed)."""
        self._lines.pop(opn, None)

    def flush(self) -> None:
        self._lines.clear()

    def __contains__(self, opn: int) -> bool:
        return opn in self._lines

    def __len__(self) -> int:
        return len(self._lines)
