# simlint: hot-path
"""Stream prefetcher — Table 2.

The paper's configuration: a multi-stream prefetcher in the style of the
IBM POWER6 [33] / feedback-directed [48] designs, monitoring L2 misses and
prefetching into the L3, with 16 stream entries, degree 4 and distance 24.

The model: each stream tracks a region and direction.  A miss either
trains an existing stream (advancing it and issuing up to ``degree``
prefetches that stay within ``distance`` lines of the demand miss) or
allocates a new stream entry (LRU replacement among the 16 entries).

Two structures keep a miss cheap when most misses allocate, as random
access patterns do.  Each stream keeps the one interval ``[lo, hi]`` of
lines that train it: within the training window of its last line, or
ahead of it, in its direction, within the prefetch distance.  And an
insertion-ordered map keeps the streams in LRU order, so the victim of
an allocation is its first key, reused in place.  The streams list
keeps allocation order, in which the first matching stream wins.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List


class _Stream:
    """One tracked stream: last demand line, direction, next prefetch,
    and the interval ``[lo, hi]`` of lines that train it."""

    __slots__ = ("last_line", "direction", "next_prefetch", "confidence",
                 "lo", "hi")

    def __init__(self, last_line: int, lo: int, hi: int):
        self.last_line = last_line
        self.direction = 0   # +1, -1, or 0 while still training
        self.next_prefetch = 0
        self.confidence = 0
        self.lo = lo
        self.hi = hi


@dataclass
class PrefetcherStats:
    trainings: int = 0
    allocations: int = 0
    issued: int = 0


class StreamPrefetcher:
    """A 16-entry stream prefetcher issuing into the level below L2."""

    __slots__ = ("entries", "degree", "distance", "train_window", "_reach",
                 "_streams", "_lru", "stats")

    def __init__(self, entries: int = 16, degree: int = 4, distance: int = 24,
                 train_window: int = 4):
        self.entries = entries
        self.degree = degree
        self.distance = distance
        self.train_window = train_window
        #: How far ahead of its last line, in its direction, a stream
        #: still matches: the training window or the prefetch distance.
        self._reach = max(train_window, distance)
        #: Streams in allocation order: the first one matching wins.
        self._streams: List[_Stream] = []
        #: The same streams in LRU order, least recent first.
        self._lru: "OrderedDict[_Stream, None]" = OrderedDict()
        self.stats = PrefetcherStats()

    def on_miss(self, line: int) -> List[int]:
        """Train on an L2 demand miss at *line*; return lines to prefetch."""
        # The first stream *line* falls near (within the training window)
        # or ahead of (within the prefetch distance, in its direction).
        for stream in self._streams:
            if stream.lo <= line <= stream.hi:
                break
        else:
            window = self.train_window
            lru = self._lru
            if len(lru) >= self.entries:
                # Reuse the least recently used stream for the new one.
                stream = lru.popitem(last=False)[0]
                self._streams.remove(stream)
                stream.last_line = line
                stream.direction = stream.next_prefetch = 0
                stream.confidence = 0
                stream.lo = line - window
                stream.hi = line + window
            else:
                stream = _Stream(line, line - window, line + window)
            self._streams.append(stream)
            lru[stream] = None
            self.stats.allocations += 1
            return []

        self.stats.trainings += 1
        self._lru.move_to_end(stream)
        delta = line - stream.last_line
        if delta == 0:
            return []
        direction = 1 if delta > 0 else -1
        if stream.direction == direction:
            if stream.confidence < 4:
                stream.confidence += 1
        else:
            stream.direction = direction
            stream.confidence = 1
            stream.next_prefetch = line + direction
        stream.last_line = line
        if direction > 0:
            stream.lo = line - self.train_window
            stream.hi = line + self._reach
        else:
            stream.lo = line - self._reach
            stream.hi = line + self.train_window

        if stream.confidence < 2:
            return []
        # Issue up to `degree` prefetches from the stream's next line (or
        # the line after the demand miss, if that is farther along), never
        # farther than `distance` lines ahead of the demand miss.
        candidate = stream.next_prefetch
        if direction > 0:
            if candidate <= line:
                candidate = line + 1
            count = line + self.distance - candidate + 1
        else:
            if candidate >= line:
                candidate = line - 1
            count = candidate - line + self.distance + 1
        if count > self.degree:
            count = self.degree
        if count <= 0:
            return []
        stream.next_prefetch = candidate + count * direction
        self.stats.issued += count
        if count == 1:
            return [candidate]
        return [*range(candidate, stream.next_prefetch, direction)]

    def active_streams(self) -> int:  # simlint: disable=SL007 tests read it
        return len(self._streams)
