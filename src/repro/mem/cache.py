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

A level keeps its lines in four flat lists indexed by *slot*, ``set *
ways + way``: the tag (``None`` in a free way), the dirty bit, the
payload and the prefetched bit.  ``_where`` maps each resident tag to
its slot, so a fill writes four list items and allocates nothing.

Table 2 of the paper uses LRU for the L1 and L2 caches and DRRIP [27]
for the last-level cache; the cache keeps either as per-set state.
LRU is each set's list of resident slots in recency order, least
recently used first: a hit moves its slot to the back (nothing to do
when it is there already), and a fill of a full set takes the victim
slot from the front, writes the incoming line into it and puts it at
the back.

DRRIP follows Jaleel et al. [27]: 2-bit re-reference prediction values
(RRPV), SRRIP inserts at RRPV=2, BRRIP inserts at RRPV=3 except 1/32 of
the time, and set-dueling with a 10-bit saturating policy-selection
counter picks between them for follower sets.  A hit promotes its way
to RRPV 0.  A full-set fill ages the whole set until some way reaches
the maximum RRPV and evicts the first such way; each set keeps that
aging as one offset added to every way's stored value
(:meth:`SetAssociativeCache.rrpv`), so a fill changes one way and the
offset instead of rewriting every way.

A fill installs a tag the level does not hold; the hierarchy never
fills a resident tag, and merges a dirty line spilled onto a resident
copy itself.  A dirty line leaving a fill or a cross-set retag is
handed back as a plain ``(tag, data)`` pair.  :meth:`lookup`,
:meth:`invalidate` and :meth:`dirty_lines` hand back
:class:`CacheLine` snapshots.
"""

from __future__ import annotations

from itertools import compress
from typing import Dict, List, Optional, Tuple

from .stats import CacheStats
from ..engine.component import Component

#: A dirty line leaving a cache: its ``(tag, data)``.
Victim = Tuple[int, Optional[bytes]]

MAX_RRPV = 3           # 2-bit RRPV
LONG_RRPV = 2          # SRRIP insertion point
DISTANT_RRPV = 3       # BRRIP insertion point (most of the time)
BRRIP_LONG_EVERY = 32  # BRRIP inserts at LONG_RRPV 1/32 of the time
PSEL_MAX = (1 << 10) - 1  # 10-bit saturating policy selector
PSEL_MID = (PSEL_MAX + 1) // 2
DUELING_SETS = 32      # leader sets per policy


class CacheLine:
    """A snapshot of one resident line and its slot.

    Tag, dirtiness, optional payload, prefetched bit, set and way, as
    they were when it was taken; changing it changes nothing in the
    cache.
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


class SetAssociativeCache(Component):
    """A single cache level.

    Parameters mirror Table 2: size, associativity, line size, tag/data
    latencies and whether tag and data lookups are performed in parallel
    (L1, L2) or serially (L3).  The caller passes every timing from the
    machine's :class:`~repro.config.SystemConfig`.  *policy* is
    ``'lru'`` or ``'drrip'``, in any case.
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
        policy = policy.lower()
        if policy not in ("lru", "drrip"):
            raise ValueError(f"unknown replacement policy {policy!r}")
        self._lru = policy == "lru"
        if not self._lru:
            # A way's RRPV is its stored value plus its set's offset.
            self._rrpv: List[List[int]] = [
                [MAX_RRPV] * ways for _ in range(self.num_sets)]
            self._offset: List[int] = [0] * self.num_sets
            self._psel = PSEL_MID
            self._brrip_throttle = 0
            self._leader: Dict[int, str] = {}
            stride = max(1, self.num_sets // (2 * DUELING_SETS))
            for i in range(DUELING_SETS):
                self._leader.setdefault(
                    (2 * i * stride) % self.num_sets, "srrip")
                self._leader.setdefault(
                    ((2 * i + 1) * stride) % self.num_sets, "brrip")
        # The lines, one item per slot (set * ways + way); a free slot's
        # tag is None, its dirty and prefetched bits False and its data
        # None.  dirty_lines() walks the slots in this order.
        slots = self.num_sets * ways
        self._tags: List[Optional[int]] = [None] * slots
        self._dirty: List[bool] = [False] * slots
        self._data: List[Optional[bytes]] = [None] * slots
        self._prefetched: List[bool] = [False] * slots
        # The resident map: tag -> its slot.
        self._where: Dict[int, int] = {}
        # Each set's resident slots.  Under LRU this is the set's recency
        # order, least recently used first; DRRIP reads only its length,
        # so fill() skips the free-way scan of a full set.
        self._sets: List[List[int]] = [[] for _ in range(self.num_sets)]
        # Precomputed ints so hot paths avoid the property dispatch.
        if serial_tag_data:
            self.hit_latency = tag_latency + data_latency
        else:
            self.hit_latency = max(tag_latency, data_latency)
        self.miss_latency = tag_latency
        self.stats = CacheStats(name=name)
        self.stats_scope.own_block(self.stats)

    # -- core operations -------------------------------------------------------

    def _line(self, slot: int) -> CacheLine:
        """A snapshot of the line in *slot*."""
        set_index, way = divmod(slot, self.ways)
        return CacheLine(self._tags[slot], self._dirty[slot],
                         self._data[slot], self._prefetched[slot],
                         set_index, way)

    def lookup(self, tag: int) -> Optional[CacheLine]:
        """A snapshot of *tag*'s line, or None; no stats, no LRU update."""
        slot = self._where.get(tag)
        return None if slot is None else self._line(slot)

    def access(self, tag: int, write: bool = False,
               data: Optional[bytes] = None) -> Tuple[bool, int]:
        """Access *tag*; return ``(hit, latency)``.

        On a write hit the line is marked dirty and its payload replaced
        when *data* is given.  Misses cost only the tag latency here; the
        hierarchy adds the lower levels' time and then calls :meth:`fill`.
        """
        slot = self._where.get(tag)
        if slot is None:
            self.stats.misses += 1
            return False, self.miss_latency
        set_index = tag % self.num_sets
        if self._lru:
            order = self._sets[set_index]
            if order[-1] != slot:
                order.remove(slot)
                order.append(slot)
        else:
            self._rrpv[set_index][slot - set_index * self.ways] = (
                -self._offset[set_index])
        self.stats.hits += 1
        if self._prefetched[slot]:
            self.stats.prefetch_hits += 1
            self._prefetched[slot] = False
        if write:
            self._dirty[slot] = True
            if data is not None:
                self._data[slot] = data
        return True, self.hit_latency

    def fill(self, tag: int, data: Optional[bytes] = None,
             dirty: bool = False, prefetch: bool = False) -> Optional[Victim]:
        """Install *tag*, which this level must not hold.

        Returns the victim's ``(tag, data)`` only if a *dirty* line fell
        out; a clean victim is counted in ``stats.evictions`` and
        dropped.  A dirty line arriving at a level that holds its tag
        merges into that copy instead
        (:meth:`~repro.mem.hierarchy.MemoryHierarchy._spill`).
        """
        set_index = tag % self.num_sets
        order = self._sets[set_index]
        tags = self._tags
        ways = self.ways
        full = len(order) >= ways
        if self._lru:
            if full:
                # The least recently used slot becomes the most recent.
                slot = order.pop(0)
            else:
                # The set's first free way.
                slot = tags.index(None, set_index * ways)
            order.append(slot)
        else:
            # The insertion RRPV.  A fill in a leader set is a miss
            # there, which votes against that leader's policy; a
            # follower set follows PSEL.  Prefetches are inserted with
            # the distant prediction.
            leader = self._leader.get(set_index)
            psel = self._psel
            if leader is None:
                srrip = psel < PSEL_MID
            elif leader == "srrip":
                if psel < PSEL_MAX:
                    self._psel = psel + 1
                srrip = True
            else:
                if psel > 0:
                    self._psel = psel - 1
                srrip = False
            if srrip:
                rrpv = LONG_RRPV
            else:
                throttle = self._brrip_throttle = (
                    (self._brrip_throttle + 1) % BRRIP_LONG_EVERY)
                rrpv = LONG_RRPV if throttle == 0 else DISTANT_RRPV
            if prefetch:
                rrpv = DISTANT_RRPV
            rrpvs = self._rrpv[set_index]
            if full:
                # RRIP ages the whole set until some way reaches MAX_RRPV
                # and evicts the first such way.  RRPVs never exceed
                # MAX_RRPV, so that is one aging step: the offset that
                # lifts the largest stored value to MAX_RRPV.
                top = max(rrpvs)
                way = rrpvs.index(top)
                offset = self._offset[set_index] = MAX_RRPV - top
                rrpvs[way] = rrpv - offset
                slot = set_index * ways + way
            else:
                slot = tags.index(None, set_index * ways)
                order.append(slot)
                rrpvs[slot - set_index * ways] = rrpv - self._offset[set_index]
        stats = self.stats
        evicted = None
        if full:
            victim = tags[slot]
            del self._where[victim]
            stats.evictions += 1
            if self._dirty[slot]:
                stats.dirty_evictions += 1
                evicted = (victim, self._data[slot])
        tags[slot] = tag
        self._dirty[slot] = dirty
        self._data[slot] = data
        self._prefetched[slot] = prefetch
        self._where[tag] = slot
        stats.fills += 1
        if prefetch:
            stats.prefetch_fills += 1
        return evicted

    def rrpv(self, set_index: int, way: int) -> int:
        """The RRPV of *way* in *set_index* of a DRRIP cache."""
        return self._rrpv[set_index][way] + self._offset[set_index]

    def _free(self, slot: int) -> None:
        """Empty *slot*, whose tag has left the resident map."""
        self._sets[slot // self.ways].remove(slot)
        self._tags[slot] = None
        self._dirty[slot] = False
        self._data[slot] = None
        self._prefetched[slot] = False

    def invalidate(self, tag: int) -> Optional[CacheLine]:
        """Remove *tag*; returns a snapshot of its line, if present."""
        slot = self._where.pop(tag, None)
        if slot is None:
            return None
        line = self._line(slot)
        self._free(slot)
        self.stats.invalidations += 1
        return line

    def retag(self, old_tag: int,
              new_tag: int) -> Tuple[bool, Optional[Victim]]:
        """Rewrite a resident line's tag in place (overlaying-write step 1).

        The line keeps its data and dirtiness but now answers to
        *new_tag*.  Returns ``(moved, victim)``: *moved* is False when
        *old_tag* is not resident or the new tag's set already holds it.
        When old and new tags land in different sets, a fill of the new
        set moves the line (hardware would make an explicit copy —
        Section 4.3.3), and *victim* is that fill's dirty ``(tag, data)``.
        """
        where = self._where
        slot = where.get(old_tag)
        if slot is None or new_tag in where:
            return False, None
        del where[old_tag]
        if new_tag % self.num_sets == old_tag % self.num_sets:
            self._tags[slot] = new_tag
            where[new_tag] = slot
            return True, None
        # Cross-set move: evict from the old slot, fill into the new set.
        data, dirty = self._data[slot], self._dirty[slot]
        self._free(slot)
        return True, self.fill(new_tag, data=data, dirty=dirty)

    def dirty_lines(self) -> List[CacheLine]:  # simlint: disable=SL007 oracle
        """Snapshots of all dirty resident lines, in slot order."""
        return [self._line(slot)
                for slot in compress(range(len(self._dirty)), self._dirty)]

    def resident_tags(self) -> List[int]:  # simlint: disable=SL007 oracle
        return list(self._where)

    def __contains__(self, tag: int) -> bool:
        return tag in self._where

    def __len__(self) -> int:
        return len(self._where)
