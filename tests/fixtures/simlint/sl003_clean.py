"""SL003 fixture (clean): counters live in registered stats blocks."""

from dataclasses import dataclass

from repro.engine.component import Component


@dataclass
class CacheCounters:
    hits: int = 0


class DisciplinedCache(Component):
    def __init__(self, prefetcher):
        super().__init__("disciplined")
        self.stats = CacheCounters()
        self.stats_scope.own_block(self.stats)
        self.stats_scope.register_block("prefetcher", prefetcher.stats)

    def access(self, tag):
        self.stats.hits += 1
        return tag
