# simlint: hot-path
"""Stream prefetcher — Table 2.

The paper's configuration: a multi-stream prefetcher in the style of the
IBM POWER6 [33] / feedback-directed [48] designs, monitoring L2 misses and
prefetching into the L3, with 16 stream entries, degree 4 and distance 24.

The model: each stream tracks a region and direction.  A miss either
trains an existing stream (advancing it and issuing up to ``degree``
prefetches that stay within ``distance`` lines of the demand miss) or
allocates a new stream entry (LRU replacement among the 16 entries).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


class _Stream:
    """One tracked stream: last demand line, direction, next prefetch."""

    __slots__ = ("last_line", "direction", "next_prefetch", "confidence",
                 "lru")

    def __init__(self, last_line: int, direction: int = 0,
                 next_prefetch: int = 0, confidence: int = 0, lru: int = 0):
        self.last_line = last_line
        self.direction = direction   # +1, -1, or 0 while still training
        self.next_prefetch = next_prefetch
        self.confidence = confidence
        self.lru = lru


@dataclass
class PrefetcherStats:
    trainings: int = 0
    allocations: int = 0
    issued: int = 0


class StreamPrefetcher:
    """A 16-entry stream prefetcher issuing into the level below L2."""

    __slots__ = ("entries", "degree", "distance", "train_window", "_streams",
                 "_clock", "stats")

    def __init__(self, entries: int = 16, degree: int = 4, distance: int = 24,
                 train_window: int = 4):
        self.entries = entries
        self.degree = degree
        self.distance = distance
        self.train_window = train_window
        self._streams: List[_Stream] = []
        self._clock = 0
        self.stats = PrefetcherStats()

    def on_miss(self, line: int) -> List[int]:
        """Train on an L2 demand miss at *line*; return lines to prefetch."""
        self._clock += 1
        # The first stream *line* falls near (within the training window)
        # or ahead of (within the prefetch distance, in its direction).
        window = self.train_window
        distance = self.distance
        for stream in self._streams:
            delta = line - stream.last_line
            if -window <= delta <= window:
                break
            direction = stream.direction
            if direction and 0 <= delta * direction <= distance:
                break
        else:
            if len(self._streams) >= self.entries:
                victim = self._streams[0]
                best = victim.lru
                for candidate in self._streams:
                    if candidate.lru < best:
                        best = candidate.lru
                        victim = candidate
                self._streams.remove(victim)
            self._streams.append(_Stream(last_line=line, lru=self._clock))
            self.stats.allocations += 1
            return []

        self.stats.trainings += 1
        stream.lru = self._clock
        if delta == 0:
            return []
        direction = 1 if delta > 0 else -1
        if stream.direction == direction:
            stream.confidence = min(stream.confidence + 1, 4)
        else:
            stream.direction = direction
            stream.confidence = 1
            stream.next_prefetch = line + direction
        stream.last_line = line

        if stream.confidence < 2:
            return []
        # Issue up to `degree` prefetches, never farther than `distance`
        # lines ahead of the demand miss.
        prefetches = []
        limit = line + direction * distance
        candidate = max(stream.next_prefetch * direction, (line + direction) * direction) * direction
        for _ in range(self.degree):
            if (limit - candidate) * direction < 0:
                break
            prefetches.append(candidate)
            candidate += direction
        if prefetches:
            stream.next_prefetch = prefetches[-1] + direction
            self.stats.issued += len(prefetches)
        return prefetches

    def active_streams(self) -> int:
        return len(self._streams)
