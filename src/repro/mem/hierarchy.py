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
:class:`HierarchyStats`, and emits the ``port`` trace events of the
resolve, fetch and writeback steps.  Unwired, it serves misses from a
flat physical address space over its own DRAM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from .cache import EvictedLine, SetAssociativeCache
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

    resolve_miss_requests: int = 0
    resolve_miss_latency: int = 0
    fetch_data_requests: int = 0
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
        # The flat address space resolves the tag as a full miss does.
        self.stats.resolve_miss_requests += 1
        if HOOKS.active is not None:
            HOOKS.active.emit(None, "port", "resolve_miss",
                              {"op": "resolve", "tag": tag, "latency": 0})
        return self.dram.write(tag * 64, self._now)

    # -- calls to the memory controller, counted and traced -------------------

    def _trace_miss(self, tag: int, lookup: int) -> None:
        """Emit the resolve and fetch steps of a :attr:`read_miss` call;
        *lookup* is its lookup latency."""
        HOOKS.active.emit(None, "port", "resolve_miss",
                          {"op": "resolve", "tag": tag, "latency": lookup})
        HOOKS.active.emit(None, "port", "fetch_data",
                          {"op": "fetch", "tag": tag})

    def _writeback(self, tag: int, data: Optional[bytes]) -> int:
        """Hand a dirty line leaving the hierarchy to the controller;
        returns the background-traffic latency it charged."""
        stats = self.stats
        stats.writeback_requests += 1
        latency = self.handle_writeback(tag, data)
        stats.writeback_latency += latency
        if HOOKS.active is not None:
            HOOKS.active.emit(None, "port", "writeback",
                              {"op": "writeback", "tag": tag,
                               "latency": latency})
        return latency

    # -- eviction plumbing ---------------------------------------------------------

    def _spill(self, level: SetAssociativeCache, evicted: EvictedLine) -> None:
        """Push a dirty victim of *level* down the non-inclusive hierarchy:
        each fill's own dirty victim carries on down, out of the L3 to
        the controller."""
        if level is self.l1:
            evicted = self.l2.fill(evicted.tag, evicted.data, True)
            if evicted is None:
                return
            level = self.l2
        if level is self.l2:
            evicted = self.l3.fill(evicted.tag, evicted.data, True)
            if evicted is None:
                return
        self._writeback(evicted.tag, evicted.data)

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
        line = l1._where.get(tag)
        if line is not None:
            if l1._lru:
                order = l1._sets[line.set_index]
                if order[-1] is not line:
                    order.remove(line)
                    order.append(line)
            else:
                l1._policy.on_hit(line.set_index, line.way)
            stats = l1.stats
            stats.hits += 1
            if line.prefetched:
                stats.prefetch_hits += 1
                line.prefetched = False
            if write:
                line.dirty = True
                if data is not None:
                    line.data = data
            return l1.hit_latency
        l1.stats.misses += 1

        l2 = self.l2
        line = l2._where.get(tag)
        if line is not None:
            # SetAssociativeCache.access(tag), a read hit, inlined.
            if l2._lru:
                order = l2._sets[line.set_index]
                if order[-1] is not line:
                    order.remove(line)
                    order.append(line)
            else:
                l2._policy.on_hit(line.set_index, line.way)
            stats = l2.stats
            stats.hits += 1
            if line.prefetched:
                stats.prefetch_hits += 1
                line.prefetched = False
            latency = l2.hit_latency
            # Dirty ownership moves *up* with the data: leaving a lower
            # copy dirty would create a stale dirty duplicate that a
            # later flush or eviction writes back over fresher data.
            dirty = write or line.dirty
            line.dirty = False
            fill_data = line.data
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
                stats.resolve_miss_requests += 1
                stats.resolve_miss_latency += extra
                stats.fetch_data_requests += 1
                if HOOKS.active is not None:
                    self._trace_miss(pf_tag, extra)
                evicted = l3.fill(pf_tag, data=pf_data, prefetch=True)
                if evicted is not None:
                    self._spill(l3, evicted)

            line = l3._where.get(tag)
            if line is not None:
                # SetAssociativeCache.access(tag), a read hit, inlined.
                if l3._lru:
                    order = l3._sets[line.set_index]
                    if order[-1] is not line:
                        order.remove(line)
                        order.append(line)
                else:
                    l3._policy.on_hit(line.set_index, line.way)
                l3_stats = l3.stats
                l3_stats.hits += 1
                if line.prefetched:
                    l3_stats.prefetch_hits += 1
                    line.prefetched = False
                latency += l3.hit_latency
                dirty = write or line.dirty
                line.dirty = False
                # Read before the L2 fill: its spill into the L3 may evict
                # this line and reuse the object for another tag.
                fill_data = line.data
                evicted = l2.fill(tag, fill_data)
                if evicted is not None:
                    self._spill(l2, evicted)
            else:
                l3.stats.misses += 1
                latency += l3.miss_latency
                # Full-hierarchy miss: resolve (possibly via the OMT),
                # read DRAM and fetch the line in one controller call.
                extra, cycles, fill_data = self.read_miss(
                    tag, self._now + l1.miss_latency + latency, False)
                stats.resolve_miss_requests += 1
                stats.resolve_miss_latency += extra
                stats.fetch_data_requests += 1
                if HOOKS.active is not None:
                    self._trace_miss(tag, extra)
                latency += extra + cycles
                # Fill L3 then L2, spilling each dirty victim at once.
                evicted = l3.fill(tag, fill_data)
                if evicted is not None:
                    self._spill(l3, evicted)
                evicted = l2.fill(tag, fill_data)
                if evicted is not None:
                    self._spill(l2, evicted)
                dirty = write
        evicted = l1.fill(tag, fill_data, dirty)
        if evicted is not None:
            self._spill(l1, evicted)
        if data is not None and write:
            l1.access(tag, write=True, data=data)
        return l1.miss_latency + latency

    # -- maintenance operations ----------------------------------------------------

    def retag(self, old_tag: int, new_tag: int) -> bool:
        """Rewrite a resident line's tag in whichever levels hold it."""
        changed = False
        for level in (self.l1, self.l2, self.l3):
            moved, evicted = level.retag(old_tag, new_tag)
            if evicted is not None:
                self._spill(level, evicted)
            changed = moved or changed
        return changed

    def invalidate(self, tag: int, writeback: bool = True) -> None:
        """Drop *tag* everywhere, spilling dirty data to memory if asked."""
        for level in (self.l1, self.l2, self.l3):
            evicted = level.invalidate(tag)
            if evicted is not None and evicted.dirty and writeback:
                self._writeback(evicted.tag, evicted.data)

    def flush_dirty(self) -> int:
        """Write back every dirty line (checkpoint barrier); returns count."""
        flushed = 0
        for level in (self.l1, self.l2, self.l3):
            for line in level.dirty_lines():
                self._writeback(line.tag, line.data)
                line.dirty = False
                flushed += 1
        return flushed

    def lookup_data(self, tag: int) -> Optional[bytes]:
        """Return the freshest cached payload for *tag*, if any."""
        for level in (self.l1, self.l2, self.l3):
            line = level.lookup(tag)
            if line is not None and line.data is not None:
                return line.data
        return None

    def dirty_data(self, tag: int) -> Optional[bytes]:
        """Return the payload of the freshest *dirty* copy of *tag*, or
        None when no cached copy is dirty."""
        for level in (self.l1, self.l2, self.l3):
            line = level.lookup(tag)
            if line is not None and line.dirty:
                return line.data
        return None

    def clean(self, tag: int) -> None:
        """Clear the dirty bit on every cached copy of *tag* (after the
        caller has written the data back itself)."""
        for level in (self.l1, self.l2, self.l3):
            line = level.lookup(tag)
            if line is not None:
                line.dirty = False

    def caches(self) -> List[SetAssociativeCache]:
        return [self.l1, self.l2, self.l3]
