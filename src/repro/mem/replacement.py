# simlint: hot-path
"""Cache replacement policies: LRU and DRRIP.

Table 2 of the paper uses LRU for the L1 and L2 caches and DRRIP [27]
(Dynamic Re-Reference Interval Prediction) for the last-level cache.
LRU needs no policy object: :class:`~repro.mem.cache.SetAssociativeCache`
keeps each set's resident lines in recency order, least recently used
first, so a hit moves its line to the back and a fill of a full set
evicts the front.  Any other policy is a per-cache object the cache
calls on every hit (:meth:`~ReplacementPolicy.on_hit`), on a fill into
a free way (:meth:`~ReplacementPolicy.on_fill`) and on a fill of a full
set (:meth:`~ReplacementPolicy.replace`, which picks the victim's way).
The cache finds a free way itself.

DRRIP follows Jaleel et al. [27]: 2-bit re-reference prediction values
(RRPV), SRRIP inserts at RRPV=2, BRRIP inserts at RRPV=3 except 1/32 of
the time, and set-dueling with a 10-bit saturating policy-selection
counter picks between them for follower sets.  A full-set fill ages
the whole set until some way reaches the maximum RRPV; each set keeps
that aging as one offset added to every way's stored value
(:meth:`DRRIPPolicy.rrpv`), so a fill changes one way and the offset
instead of rewriting every way.
"""

from __future__ import annotations

from typing import Dict, List, Optional


class ReplacementPolicy:
    """Interface: one instance manages every set of one cache."""

    __slots__ = ("num_sets", "ways")

    def __init__(self, num_sets: int, ways: int):
        self.num_sets = num_sets
        self.ways = ways

    def on_hit(self, set_index: int, way: int) -> None:
        raise NotImplementedError

    def on_fill(self, set_index: int, way: int, prefetch: bool = False) -> None:
        raise NotImplementedError

    def victim_full(self, set_index: int) -> int:
        """Pick the way to evict in a set with no free way.

        The reference for :meth:`replace`, which the cache calls
        instead: ``victim_full`` then ``on_fill`` is its definition.
        """
        raise NotImplementedError

    def replace(self, set_index: int, prefetch: bool = False) -> int:
        """Fill a full set: pick the victim's way and account the
        incoming line there — :meth:`victim_full` then :meth:`on_fill`,
        which a policy may fuse into one step.  Returns the way."""
        way = self.victim_full(set_index)
        self.on_fill(set_index, way, prefetch=prefetch)
        return way


class DRRIPPolicy(ReplacementPolicy):
    """Dynamic RRIP with set-dueling between SRRIP and BRRIP [27]."""

    MAX_RRPV = 3          # 2-bit RRPV
    LONG_RRPV = 2         # SRRIP insertion point
    DISTANT_RRPV = 3      # BRRIP insertion point (most of the time)
    BRRIP_LONG_EVERY = 32 # BRRIP inserts at LONG_RRPV 1/32 of the time
    PSEL_BITS = 10
    DUELING_SETS = 32     # leader sets per policy

    __slots__ = ("_rrpv", "_offset", "_psel", "_psel_max", "_psel_mid",
                 "_brrip_throttle", "_leader")

    def __init__(self, num_sets: int, ways: int):
        super().__init__(num_sets, ways)
        # A way's RRPV is its stored value plus its set's offset.
        self._rrpv: List[List[int]] = [
            [self.MAX_RRPV] * ways for _ in range(num_sets)]
        self._offset: List[int] = [0] * num_sets
        self._psel = (1 << self.PSEL_BITS) // 2
        self._psel_max = (1 << self.PSEL_BITS) - 1
        self._psel_mid = (self._psel_max + 1) // 2
        self._brrip_throttle = 0
        self._leader: Dict[int, str] = {}
        stride = max(1, num_sets // (2 * self.DUELING_SETS))
        for i in range(self.DUELING_SETS):
            srrip_set = (2 * i * stride) % num_sets
            brrip_set = ((2 * i + 1) * stride) % num_sets
            self._leader.setdefault(srrip_set, "srrip")
            self._leader.setdefault(brrip_set, "brrip")

    def rrpv(self, set_index: int, way: int) -> int:
        """The RRPV of *way* in *set_index*."""
        return self._rrpv[set_index][way] + self._offset[set_index]

    def on_hit(self, set_index: int, way: int) -> None:
        # Hit promotion: RRPV -> 0 (near-immediate re-reference).
        self._rrpv[set_index][way] = -self._offset[set_index]

    def on_fill(self, set_index: int, way: int, prefetch: bool = False) -> None:
        # A fill in a leader set is a miss there, which votes against
        # that leader's policy; a follower set follows PSEL.
        leader = self._leader.get(set_index)
        psel = self._psel
        if leader is None:
            srrip = psel < self._psel_mid
        elif leader == "srrip":
            if psel < self._psel_max:
                self._psel = psel + 1
            srrip = True
        else:
            if psel > 0:
                self._psel = psel - 1
            srrip = False
        if srrip:
            rrpv = self.LONG_RRPV
        else:
            self._brrip_throttle = (self._brrip_throttle + 1) % self.BRRIP_LONG_EVERY
            rrpv = self.LONG_RRPV if self._brrip_throttle == 0 else self.DISTANT_RRPV
        if prefetch:
            rrpv = self.DISTANT_RRPV  # prefetches inserted with distant prediction
        self._rrpv[set_index][way] = rrpv - self._offset[set_index]

    def victim_full(self, set_index: int) -> int:
        # RRIP ages the whole set until some way reaches MAX_RRPV and
        # evicts the first such way.  RRPVs never exceed MAX_RRPV, so
        # that is one aging step: the offset that lifts the largest
        # stored value to MAX_RRPV, and the victim is its first way.
        rrpvs = self._rrpv[set_index]
        top = max(rrpvs)
        self._offset[set_index] = self.MAX_RRPV - top
        return rrpvs.index(top)

    def replace(self, set_index: int, prefetch: bool = False) -> int:
        # victim_full and on_fill fused: the cache fills a full L3 set
        # with this one call.
        rrpvs = self._rrpv[set_index]
        top = max(rrpvs)
        offset = self._offset[set_index] = self.MAX_RRPV - top
        way = rrpvs.index(top)
        leader = self._leader.get(set_index)
        psel = self._psel
        if leader is None:
            srrip = psel < self._psel_mid
        elif leader == "srrip":
            if psel < self._psel_max:
                self._psel = psel + 1
            srrip = True
        else:
            if psel > 0:
                self._psel = psel - 1
            srrip = False
        if srrip:
            rrpv = self.LONG_RRPV
        else:
            self._brrip_throttle = (self._brrip_throttle + 1) % self.BRRIP_LONG_EVERY
            rrpv = self.LONG_RRPV if self._brrip_throttle == 0 else self.DISTANT_RRPV
        if prefetch:
            rrpv = self.DISTANT_RRPV  # prefetches inserted with distant prediction
        rrpvs[way] = rrpv - offset
        return way


def make_policy(name: str, num_sets: int,
                ways: int) -> Optional[ReplacementPolicy]:
    """The policy object a cache calls for *name*: 'lru' or 'drrip'.

    ``None`` for LRU, which the cache keeps itself as each set's
    recency order; a :class:`DRRIPPolicy` over *num_sets* sets of
    *ways* ways for DRRIP.  Any other name is a ``ValueError``.
    """
    name = name.lower()
    if name == "lru":
        return None
    if name == "drrip":
        return DRRIPPolicy(num_sets, ways)
    raise ValueError(f"unknown replacement policy {name!r}")
