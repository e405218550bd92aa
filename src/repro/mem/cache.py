# simlint: hot-path
"""A set-associative cache with LRU or DRRIP replacement and data payloads.

Caches here are keyed by *line tags* — globally unique integers derived
from the physical (or overlay) line address.  The overlay framework's
dual-address trick (Section 3.2) means an overlay line and its physical
twin have different tags, so they coexist in the hierarchy exactly as the
paper intends, and the "retag" step of an overlaying write (Section 4.3.3
step 1: "simply updating the cache tag") is a tag rewrite on a resident
line, implemented by :meth:`SetAssociativeCache.retag`.

Lines optionally carry a 64-byte payload so data-fidelity experiments
(deduplication, checkpointing, speculation) can move real bytes through
the hierarchy; timing-only workloads pass ``None``.

LRU is kept here, as each set's list of resident lines in recency
order, least recently used first: a hit moves its line to the back
(nothing to do when it is there already), and a fill of a full set
takes the victim from the front, reuses its object for the incoming
line and puts it at the back.  DRRIP is a policy object
(:mod:`repro.mem.replacement`) the cache calls on every hit and fill.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .replacement import make_policy
from .stats import CacheStats
from ..engine.component import Component


class CacheLine:
    """One resident line: tag, dirtiness, optional payload, and its slot.

    ``set_index`` and ``way`` never change while the object lives: a fill
    that evicts reuses the victim's object for the incoming tag, in place.
    """

    __slots__ = ("tag", "dirty", "data", "prefetched", "set_index", "way")

    def __init__(self, tag: int, dirty: bool = False,
                 data: Optional[bytes] = None, prefetched: bool = False,
                 set_index: int = 0, way: int = 0):
        self.tag = tag
        self.dirty = dirty
        self.data = data
        self.prefetched = prefetched
        self.set_index = set_index
        self.way = way

    def __repr__(self) -> str:
        return (f"CacheLine(tag={self.tag}, dirty={self.dirty}, "
                f"data={self.data!r}, prefetched={self.prefetched})")


class EvictedLine:
    """What leaves a cache: a fill's dirty victim, or an invalidated line."""

    __slots__ = ("tag", "dirty", "data")

    def __init__(self, tag: int, dirty: bool, data: Optional[bytes]):
        self.tag = tag
        self.dirty = dirty
        self.data = data

    def __repr__(self) -> str:
        return (f"EvictedLine(tag={self.tag}, dirty={self.dirty}, "
                f"data={self.data!r})")


class SetAssociativeCache(Component):
    """A single cache level.

    Parameters mirror Table 2: size, associativity, line size, tag/data
    latencies and whether tag and data lookups are performed in parallel
    (L1, L2) or serially (L3).  The caller passes every timing from the
    machine's :class:`~repro.config.SystemConfig`.
    """

    def __init__(self, name: str, size_bytes: int, ways: int,
                 line_size: int, tag_latency: int, data_latency: int,
                 serial_tag_data: bool = False,
                 policy: str = "lru", parent: Component = None):
        super().__init__(name.lower(), parent=parent)
        if size_bytes % (ways * line_size):
            raise ValueError("cache size must divide evenly into sets")
        self.name = name
        self.line_size = line_size
        self.ways = ways
        self.num_sets = size_bytes // (ways * line_size)
        self.tag_latency = tag_latency
        self.data_latency = data_latency
        self.serial_tag_data = serial_tag_data
        # None under LRU; the hot paths keep LRU themselves and call
        # any other policy through its methods.
        self._policy = make_policy(policy, self.num_sets, ways)
        self._lru = self._policy is None
        # Each set's slots, by way: dirty_lines() walks them in this order.
        self._lines: List[List[Optional[CacheLine]]] = [
            [None] * ways for _ in range(self.num_sets)]
        # The resident map: tag -> its CacheLine, which knows its slot.
        self._where: Dict[int, CacheLine] = {}
        # Each set's resident lines.  Under LRU this is the set's recency
        # order, least recently used first; any other policy reads only
        # its length, so fill() skips the free-way scan of a full set.
        self._sets: List[List[CacheLine]] = [[] for _ in range(self.num_sets)]
        # Precomputed ints so hot paths avoid the property dispatch.
        if serial_tag_data:
            self.hit_latency = tag_latency + data_latency
        else:
            self.hit_latency = max(tag_latency, data_latency)
        self.miss_latency = tag_latency
        self.stats = CacheStats(name=name)
        self.stats_scope.own_block(self.stats)

    # -- core operations -------------------------------------------------------

    def lookup(self, tag: int) -> Optional[CacheLine]:
        """Probe without any side effects (no stats, no LRU update)."""
        return self._where.get(tag)

    def access(self, tag: int, write: bool = False,
               data: Optional[bytes] = None) -> Tuple[bool, int]:
        """Access *tag*; return ``(hit, latency)``.

        On a write hit the line is marked dirty and its payload replaced
        when *data* is given.  Misses cost only the tag latency here; the
        hierarchy adds the lower levels' time and then calls :meth:`fill`.
        """
        line = self._where.get(tag)
        if line is None:
            self.stats.misses += 1
            return False, self.miss_latency
        if self._lru:
            order = self._sets[line.set_index]
            if order[-1] is not line:
                order.remove(line)
                order.append(line)
        else:
            self._policy.on_hit(line.set_index, line.way)
        self.stats.hits += 1
        if line.prefetched:
            self.stats.prefetch_hits += 1
            line.prefetched = False
        if write:
            line.dirty = True
            if data is not None:
                line.data = data
        return True, self.hit_latency

    def fill(self, tag: int, data: Optional[bytes] = None,
             dirty: bool = False, prefetch: bool = False) -> Optional[EvictedLine]:
        """Install *tag*; return the victim only if a *dirty* line fell out.

        A clean victim is counted in ``stats.evictions`` and dropped.
        """
        where = self._where
        line = where.get(tag)
        if line is not None:
            # Refill of a resident line (e.g. prefetch raced demand): merge.
            if dirty:
                line.dirty = True
            if data is not None:
                line.data = data
            return None
        set_index = tag % self.num_sets
        order = self._sets[set_index]
        stats = self.stats
        evicted = None
        if len(order) < self.ways:
            bucket = self._lines[set_index]
            way = bucket.index(None)  # first free way
            line = bucket[way] = CacheLine(tag, dirty, data, prefetch,
                                           set_index, way)
            order.append(line)
            if not self._lru:
                self._policy.on_fill(set_index, way, prefetch=prefetch)
        else:
            if self._lru:
                # The least recently used line becomes the most recent.
                line = order.pop(0)
                order.append(line)
            else:
                line = self._lines[set_index][
                    self._policy.replace(set_index, prefetch)]
            del where[line.tag]
            stats.evictions += 1
            if line.dirty:
                stats.dirty_evictions += 1
                evicted = EvictedLine(line.tag, True, line.data)
            # Reuse the victim's CacheLine object for the incoming line.
            line.tag = tag
            line.dirty = dirty
            line.data = data
            line.prefetched = prefetch
        where[tag] = line
        stats.fills += 1
        if prefetch:
            stats.prefetch_fills += 1
        return evicted

    def invalidate(self, tag: int) -> Optional[EvictedLine]:
        """Remove *tag*; returns the line (with dirtiness) if present."""
        line = self._where.pop(tag, None)
        if line is None:
            return None
        self._lines[line.set_index][line.way] = None
        self._sets[line.set_index].remove(line)
        self.stats.invalidations += 1
        return EvictedLine(tag=line.tag, dirty=line.dirty, data=line.data)

    def retag(self, old_tag: int,
              new_tag: int) -> Tuple[bool, Optional[EvictedLine]]:
        """Rewrite a resident line's tag in place (overlaying-write step 1).

        The line keeps its data and dirtiness but now answers to
        *new_tag*.  Returns ``(moved, victim)``: *moved* is False when
        *old_tag* is not resident or the new tag's set already holds it.
        When old and new tags land in different sets, a fill of the new
        set moves the line (hardware would make an explicit copy —
        Section 4.3.3), and *victim* is that fill's dirty victim.
        """
        where = self._where
        line = where.get(old_tag)
        if line is None or new_tag in where:
            return False, None
        del where[old_tag]
        line.tag = new_tag
        set_index = line.set_index
        if new_tag % self.num_sets == set_index:
            where[new_tag] = line
            return True, None
        # Cross-set move: evict from the old slot, fill into the new set.
        self._lines[set_index][line.way] = None
        self._sets[set_index].remove(line)
        return True, self.fill(new_tag, data=line.data, dirty=line.dirty)

    def dirty_lines(self) -> List[CacheLine]:
        """All dirty resident lines (checkpoint/speculation flushes)."""
        return [line for bucket in self._lines for line in bucket
                if line is not None and line.dirty]

    def resident_tags(self) -> List[int]:
        return list(self._where)

    def __contains__(self, tag: int) -> bool:
        return tag in self._where

    def __len__(self) -> int:
        return len(self._where)
