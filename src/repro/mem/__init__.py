"""Memory-hierarchy substrate: caches (LRU or DRRIP), prefetcher, DRAM."""

from .cache import CacheLine, SetAssociativeCache
from .dram import DRAM
from .hierarchy import MemoryHierarchy
from .mainmemory import MainMemory
from .prefetcher import StreamPrefetcher
from .stats import CacheStats, DRAMStats

__all__ = ["CacheLine", "CacheStats", "DRAM", "DRAMStats", "MainMemory",
           "MemoryHierarchy", "SetAssociativeCache", "StreamPrefetcher"]
