"""Unit tests for the stream prefetcher (Table 2 configuration)."""

import random
from dataclasses import asdict

import pytest

from repro.mem.prefetcher import PrefetcherStats, StreamPrefetcher


def train(prefetcher, lines):
    issued = []
    for line in lines:
        issued.extend(prefetcher.on_miss(line))
    return issued


class TestTraining:
    def test_first_miss_allocates_stream(self):
        pf = StreamPrefetcher()
        assert pf.on_miss(100) == []
        assert pf.active_streams() == 1
        assert pf.stats.allocations == 1

    def test_ascending_stream_prefetches_ahead(self):
        pf = StreamPrefetcher(degree=4)
        issued = train(pf, [100, 101, 102])
        assert issued, "a confident stream must issue prefetches"
        assert all(line > 102 - pf.distance for line in issued)
        assert max(issued) <= 102 + pf.distance

    def test_descending_stream_supported(self):
        pf = StreamPrefetcher(degree=4)
        issued = train(pf, [200, 199, 198])
        assert issued
        assert all(line < 198 for line in issued)

    def test_degree_limits_prefetches_per_miss(self):
        pf = StreamPrefetcher(degree=2)
        issued_batches = [pf.on_miss(line) for line in (50, 51, 52, 53)]
        for batch in issued_batches:
            assert len(batch) <= 2

    def test_distance_limits_runahead(self):
        pf = StreamPrefetcher(degree=16, distance=8)
        issued = train(pf, list(range(300, 310)))
        assert max(issued) <= 309 + 8

    def test_random_misses_do_not_trigger(self):
        pf = StreamPrefetcher()
        issued = train(pf, [100, 5000, 90000, 42])
        assert issued == []

    def test_no_duplicate_prefetch_targets_in_stream(self):
        pf = StreamPrefetcher(degree=4)
        issued = train(pf, list(range(100, 112)))
        assert len(issued) == len(set(issued))


class TestCapacity:
    def test_stream_table_is_bounded(self):
        pf = StreamPrefetcher(entries=4)
        for base in range(0, 100000, 10000):
            pf.on_miss(base)
        assert pf.active_streams() <= 4

    def test_lru_stream_evicted(self):
        pf = StreamPrefetcher(entries=2)
        pf.on_miss(100)
        pf.on_miss(50000)
        pf.on_miss(100000)      # evicts the stream at 100
        pf.on_miss(101)         # must allocate anew
        assert pf.stats.allocations == 4

    def test_interleaved_streams_tracked_independently(self):
        pf = StreamPrefetcher(degree=4)
        issued = train(pf, [100, 9000, 101, 9001, 102, 9002])
        ahead_low = [l for l in issued if 100 < l < 200]
        ahead_high = [l for l in issued if 9000 < l < 9100]
        assert ahead_low and ahead_high


class _ReferenceStream:
    __slots__ = ("last_line", "direction", "next_prefetch", "confidence",
                 "lru")

    def __init__(self, last_line, lru):
        self.last_line = last_line
        self.direction = 0
        self.next_prefetch = 0
        self.confidence = 0
        self.lru = lru


class ReferencePrefetcher:
    """The linear-scan prefetcher the interval and LRU-map version
    replaced: two delta tests per stream to find a match, and a scan of
    the stamps for the LRU victim."""

    def __init__(self, entries=16, degree=4, distance=24, train_window=4):
        self.entries = entries
        self.degree = degree
        self.distance = distance
        self.train_window = train_window
        self.streams = []
        self.clock = 0
        self.stats = PrefetcherStats()

    def on_miss(self, line):
        self.clock += 1
        window = self.train_window
        distance = self.distance
        for stream in self.streams:
            delta = line - stream.last_line
            if -window <= delta <= window:
                break
            direction = stream.direction
            if direction and 0 <= delta * direction <= distance:
                break
        else:
            if len(self.streams) >= self.entries:
                victim = self.streams[0]
                best = victim.lru
                for candidate in self.streams:
                    if candidate.lru < best:
                        best = candidate.lru
                        victim = candidate
                self.streams.remove(victim)
            self.streams.append(_ReferenceStream(line, self.clock))
            self.stats.allocations += 1
            return []

        self.stats.trainings += 1
        stream.lru = self.clock
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
        prefetches = []
        limit = line + direction * distance
        candidate = max(stream.next_prefetch * direction,
                        (line + direction) * direction) * direction
        for _ in range(self.degree):
            if (limit - candidate) * direction < 0:
                break
            prefetches.append(candidate)
            candidate += direction
        if prefetches:
            stream.next_prefetch = prefetches[-1] + direction
            self.stats.issued += len(prefetches)
        return prefetches


def _miss_sequence(rng, length, regions):
    """Misses over *regions* live regions: runs of +/- strides, direction
    flips, repeats and random jumps, some at negative lines."""
    bases = [rng.randrange(-5000, 5000) * 64 for _ in range(regions)]
    lines = []
    while len(lines) < length:
        kind = rng.random()
        region = rng.randrange(regions)
        if kind < 0.25:
            lines.append(rng.randrange(-100000, 100000))
            continue
        stride = rng.choice((1, -1, 2, -2, 3, 5, -7, 0))
        for _ in range(rng.randrange(1, 12)):
            bases[region] += stride
            lines.append(bases[region])
            if rng.random() < 0.1:
                stride = -stride       # direction flip
            if rng.random() < 0.1:
                bases[region] += rng.choice((-30, -25, -24, -5, -4, 4, 5,
                                             24, 25, 30))
    return lines[:length]


class TestMatchesReference:
    """The interval match and the LRU map reproduce the linear-scan
    prefetcher exactly: same prefetch list and stats after every miss."""

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("regions", (1, 4, 24))
    def test_same_prefetches_and_stats(self, seed, regions):
        rng = random.Random(seed * 31 + regions)
        config = {}
        if seed % 3 == 1:
            config = {"entries": 4, "degree": 2, "distance": 8}
        elif seed % 3 == 2:
            config = {"entries": 16, "degree": 6, "distance": 2,
                      "train_window": 5}
        new, old = StreamPrefetcher(**config), ReferencePrefetcher(**config)
        for line in _miss_sequence(rng, 3000, regions):
            assert new.on_miss(line) == old.on_miss(line), line
            assert asdict(new.stats) == asdict(old.stats)
            assert new.active_streams() == len(old.streams)
        assert new.stats.allocations > new.entries  # eviction ran
        assert new.stats.trainings and new.stats.issued
