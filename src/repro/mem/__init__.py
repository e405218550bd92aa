"""Memory-hierarchy substrate: caches, replacement, prefetcher, DRAM."""

from .cache import CacheLine, EvictedLine, SetAssociativeCache
from .dram import DRAM
from .hierarchy import MemoryHierarchy
from .mainmemory import MainMemory
from .prefetcher import StreamPrefetcher
from .replacement import DRRIPPolicy, make_policy
from .stats import CacheStats, DRAMStats

__all__ = ["CacheLine", "CacheStats", "DRAM", "DRAMStats", "DRRIPPolicy",
           "EvictedLine", "MainMemory", "MemoryHierarchy",
           "SetAssociativeCache", "StreamPrefetcher",
           "make_policy"]
