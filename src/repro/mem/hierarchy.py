# simlint: hot-path
"""The three-level cache hierarchy of Table 2, glued to DRAM.

* L1: 64KB, 4-way, tag/data 1/2 cycles, parallel lookup, LRU.
* L2: 512KB, 8-way, tag/data 2/8 cycles, parallel lookup, LRU.
* L3: 2MB, 16-way, tag/data 10/24 cycles, serial lookup, DRRIP.
* Stream prefetcher monitoring L2 misses, prefetching into L3.
* Inclusion is not enforced at any level (Section 5).

The hierarchy builds its three levels, its prefetcher and (unless one
is passed in) its DRAM from one :class:`~repro.config.SystemConfig` —
this module holds no numeric configuration of its own.  Ablations and
small test hierarchies pass a config with other values.

The hierarchy works on line *tags*.  Regular physical tags resolve to a
DRAM byte address as ``tag * 64``; overlay tags carry the overlay marker
bit and are resolved by the memory controller through the OMT.  The
hierarchy is built with the controller's two entry points and calls
them directly (Section 4.3.1: the Overlay Memory Store is accessed only
when an access misses the entire hierarchy):

* ``read_miss`` serves a full miss or a prefetch in one call: it
  resolves the tag, reads DRAM and returns the line's bytes;
* ``handle_writeback`` takes a dirty line leaving the L3.

It counts the requests and latency of each call in its own stats block,
:class:`HierarchyStats`, and emits one ``hierarchy`` trace event per
call: ``read_miss`` or ``writeback``.  Unwired, it serves misses from a
flat physical address space over its own DRAM.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Callable, List, Optional, Tuple

from .cache import SetAssociativeCache, Victim
from .dram import DRAM
from .prefetcher import StreamPrefetcher
from ..config import DEFAULT_CONFIG, SystemConfig
from ..engine.component import Component
from ..engine.tracing import HOOKS

#: Hook serving a full miss of a line tag: ``read_miss(tag, now,
#: prefetch)`` returns ``(lookup_latency, dram_latency, data)``.  A demand
#: miss issues its DRAM read at ``now + lookup_latency``, a prefetch at
#: ``now``; a line with no backing yet reads no DRAM.
MissReader = Callable[[int, int, bool], Tuple[int, int, Optional[bytes]]]
#: Hook consuming a dirty line evicted from the L3;
#: returns extra latency charged to background writeback traffic.
WritebackHandler = Callable[[int, Optional[bytes]], int]


@dataclass
class HierarchyStats:
    """Requests to, and latency charged by, the memory controller."""

    read_miss_requests: int = 0
    read_miss_latency: int = 0
    writeback_requests: int = 0
    writeback_latency: int = 0


class MemoryHierarchy(Component):
    """L1/L2/L3 + prefetcher + DRAM, backed by the memory controller."""

    def __init__(self, dram: Optional[DRAM] = None,
                 read_miss: Optional[MissReader] = None,
                 handle_writeback: Optional[WritebackHandler] = None,
                 config: Optional[SystemConfig] = None,
                 parent: Optional[Component] = None):
        super().__init__("hierarchy", parent=parent)
        config = config or DEFAULT_CONFIG
        self.l1, self.l2, self.l3 = (
            SetAssociativeCache(
                level.upper(),
                size_bytes=getattr(config, f"{level}_bytes"),
                ways=getattr(config, f"{level}_ways"),
                line_size=config.cache_line_bytes,
                tag_latency=getattr(config, f"{level}_tag_latency"),
                data_latency=getattr(config, f"{level}_data_latency"),
                serial_tag_data=(level == "l3"),
                policy=getattr(config, f"{level}_policy"),
                parent=self)
            for level in ("l1", "l2", "l3"))
        self.dram = dram if dram is not None else DRAM(config)
        self.prefetcher = StreamPrefetcher(
            entries=config.prefetcher_entries,
            degree=config.prefetcher_degree,
            distance=config.prefetcher_distance)
        self.stats_scope.register_block("prefetcher", self.prefetcher.stats)
        #: The levels a dirty victim of each level spills through.
        self._below = {self.l1: (self.l2, self.l3), self.l2: (self.l3,),
                       self.l3: ()}
        #: The memory controller's entry points; unwired, the hierarchy
        #: falls back to a flat physical address space over ``self.dram``.
        self.read_miss: MissReader = read_miss or self._default_read_miss
        self.handle_writeback: WritebackHandler = (handle_writeback
                                                   or self._default_writeback)
        self.stats = HierarchyStats()
        self.stats_scope.own_block(self.stats)
        self._now = 0

    # -- default handlers: plain physical address space ------------------------

    def _default_read_miss(self, tag: int, now: int,
                           prefetch: bool) -> Tuple[int, int, Optional[bytes]]:
        return 0, self.dram.read(tag * 64, now), None

    def _default_writeback(self, tag: int, data: Optional[bytes]) -> int:
        return self.dram.write(tag * 64, self._now)

    # -- calls to the memory controller, counted and traced -------------------

    def _writeback(self, victim: Victim) -> int:
        """Hand a dirty line ``(tag, data)`` leaving the hierarchy to the
        controller; returns the background-traffic latency it charged."""
        tag, data = victim
        stats = self.stats
        stats.writeback_requests += 1
        latency = self.handle_writeback(tag, data)
        stats.writeback_latency += latency
        if HOOKS.active is not None:
            HOOKS.active.emit(None, "hierarchy", "writeback",
                              {"tag": tag, "latency": latency})
        return latency

    # -- eviction plumbing ---------------------------------------------------------

    def _spill(self, level: SetAssociativeCache, victim: Victim) -> None:
        """Push a dirty victim ``(tag, data)`` of *level* down the
        non-inclusive hierarchy.  A level below that holds the tag takes
        the dirty data into that copy in place (no replacement touch, no
        stats); otherwise the victim is filled there, and that fill's
        own dirty victim carries on down, out of the L3 to the
        controller."""
        for lower in self._below[level]:
            tag, data = victim
            slot = lower._where.get(tag)
            if slot is not None:
                lower._dirty[slot] = True
                if data is not None:
                    lower._data[slot] = data
                return
            victim = lower.fill(tag, data, True)
            if victim is None:
                return
        self._writeback(victim)

    # -- the demand path --------------------------------------------------------

    def access(self, tag: int, write: bool = False,
               data: Optional[bytes] = None,
               now: Optional[int] = None) -> int:
        """Perform one demand access for line *tag*; returns its latency.

        Writes are write-back/write-allocate: a write miss fetches the
        line and dirties it in the L1.  The probe of each level (dict
        lookup, replacement touch, stats) and the prefetches are inlined:
        they avoid method-call layers while performing exactly the
        operations the un-inlined calls would.  A full miss and each
        prefetch make one :attr:`read_miss` call.
        """
        if now is not None:
            self._now = now
        l1 = self.l1
        slot = l1._where.get(tag)
        if slot is not None:
            if l1._lru:
                order = l1._sets[tag % l1.num_sets]
                if order[-1] != slot:
                    order.remove(slot)
                    order.append(slot)
            else:
                set_index = tag % l1.num_sets
                l1._rrpv[set_index][slot - set_index * l1.ways] = (
                    -l1._offset[set_index])
            stats = l1.stats
            stats.hits += 1
            if l1._prefetched[slot]:
                stats.prefetch_hits += 1
                l1._prefetched[slot] = False
            if write:
                l1._dirty[slot] = True
                if data is not None:
                    l1._data[slot] = data
            return l1.hit_latency
        l1.stats.misses += 1

        l2 = self.l2
        slot = l2._where.get(tag)
        if slot is not None:
            # SetAssociativeCache.access(tag), a read hit, inlined.
            if l2._lru:
                order = l2._sets[tag % l2.num_sets]
                if order[-1] != slot:
                    order.remove(slot)
                    order.append(slot)
            else:
                set_index = tag % l2.num_sets
                l2._rrpv[set_index][slot - set_index * l2.ways] = (
                    -l2._offset[set_index])
            stats = l2.stats
            stats.hits += 1
            if l2._prefetched[slot]:
                stats.prefetch_hits += 1
                l2._prefetched[slot] = False
            latency = l2.hit_latency
            # Dirty ownership moves *up* with the data: leaving a lower
            # copy dirty would create a stale dirty duplicate that a
            # later flush or eviction writes back over fresher data.
            dirty = write or l2._dirty[slot]
            l2._dirty[slot] = False
            fill_data = l2._data[slot]
        else:
            l2.stats.misses += 1
            latency = l2.miss_latency

            # L2 miss: train the prefetcher, which prefetches into the L3
            # off the demand path (DRAM reads issue at ``_now``).
            l3 = self.l3
            stats = self.stats
            for pf_tag in self.prefetcher.on_miss(tag):
                if pf_tag < 0 or pf_tag in l3._where:
                    continue
                extra, _cycles, pf_data = self.read_miss(pf_tag, self._now,
                                                         True)
                stats.read_miss_requests += 1
                stats.read_miss_latency += extra
                if HOOKS.active is not None:
                    HOOKS.active.emit(None, "hierarchy", "read_miss",
                                      {"tag": pf_tag, "latency": extra})
                victim = l3.fill(pf_tag, pf_data, False, True)
                if victim is not None:
                    self._writeback(victim)

            slot = l3._where.get(tag)
            if slot is not None:
                # SetAssociativeCache.access(tag), a read hit, inlined.
                set_index = tag % l3.num_sets
                if l3._lru:
                    order = l3._sets[set_index]
                    if order[-1] != slot:
                        order.remove(slot)
                        order.append(slot)
                else:
                    l3._rrpv[set_index][slot - set_index * l3.ways] = (
                        -l3._offset[set_index])
                l3_stats = l3.stats
                l3_stats.hits += 1
                if l3._prefetched[slot]:
                    l3_stats.prefetch_hits += 1
                    l3._prefetched[slot] = False
                latency += l3.hit_latency
                dirty = write or l3._dirty[slot]
                l3._dirty[slot] = False
                # Read before the L2 fill: its spill into the L3 may evict
                # this line and give its slot to another tag.
                fill_data = l3._data[slot]
                victim = l2.fill(tag, fill_data)
                if victim is not None:
                    self._spill(l2, victim)
            else:
                l3.stats.misses += 1
                latency += l3.miss_latency
                # Full-hierarchy miss: resolve (possibly via the OMT),
                # read DRAM and fetch the line in one controller call.
                extra, cycles, fill_data = self.read_miss(
                    tag, self._now + l1.miss_latency + latency, False)
                stats.read_miss_requests += 1
                stats.read_miss_latency += extra
                if HOOKS.active is not None:
                    HOOKS.active.emit(None, "hierarchy", "read_miss",
                                      {"tag": tag, "latency": extra})
                latency += extra + cycles
                # Fill L3 then L2, spilling each dirty victim at once.
                victim = l3.fill(tag, fill_data)
                if victim is not None:
                    self._writeback(victim)
                victim = l2.fill(tag, fill_data)
                if victim is not None:
                    self._spill(l2, victim)
                dirty = write
        if write and data is not None:
            # A write miss: the store's bytes go into the L1 fill, dirty,
            # and the store's L1 hit on the filled line is counted here.
            victim = l1.fill(tag, data, True)
            l1.stats.hits += 1
            if not l1._lru:
                set_index = tag % l1.num_sets
                l1._rrpv[set_index][l1._where[tag] - set_index * l1.ways] = (
                    -l1._offset[set_index])
        else:
            victim = l1.fill(tag, fill_data, dirty)
        if victim is not None:
            self._spill(l1, victim)
        return l1.miss_latency + latency

    # -- maintenance operations ----------------------------------------------------

    def retag(self, old_tag: int, new_tag: int) -> bool:
        """Rewrite a resident line's tag in whichever levels hold it."""
        changed = False
        for level in (self.l1, self.l2, self.l3):
            moved, victim = level.retag(old_tag, new_tag)
            if victim is not None:
                self._spill(level, victim)
            changed = moved or changed
        return changed

    def invalidate(self, tag: int, writeback: bool = True) -> None:
        """Drop *tag* everywhere, spilling dirty data to memory if asked."""
        for level in (self.l1, self.l2, self.l3):
            line = level.invalidate(tag)
            if line is not None and line.dirty and writeback:
                self._writeback((line.tag, line.data))

    def flush_dirty(self) -> int:
        """Write back every dirty line (checkpoint barrier); returns count."""
        flushed = 0
        for level in (self.l1, self.l2, self.l3):
            tags, dirty, data = level._tags, level._dirty, level._data
            for slot in compress(range(len(dirty)), dirty):
                self._writeback((tags[slot], data[slot]))
                dirty[slot] = False
                flushed += 1
        return flushed

    def lookup_data(self, tag: int) -> Optional[bytes]:
        """Return the freshest cached payload for *tag*, if any."""
        for level in (self.l1, self.l2, self.l3):
            slot = level._where.get(tag)
            if slot is not None and level._data[slot] is not None:
                return level._data[slot]
        return None

    def dirty_data(self, tag: int) -> Optional[bytes]:
        """Return the payload of the freshest *dirty* copy of *tag*, or
        None when no cached copy is dirty."""
        for level in (self.l1, self.l2, self.l3):
            slot = level._where.get(tag)
            if slot is not None and level._dirty[slot]:
                return level._data[slot]
        return None

    def clean(self, tag: int) -> None:
        """Clear the dirty bit on every cached copy of *tag* (after the
        caller has written the data back itself)."""
        for level in (self.l1, self.l2, self.l3):
            slot = level._where.get(tag)
            if slot is not None:
                level._dirty[slot] = False

    def caches(self) -> List[SetAssociativeCache]:
        return [self.l1, self.l2, self.l3]
