"""Memory-hierarchy substrate: caches, replacement, prefetcher, DRAM."""

from .cache import CacheLine, SetAssociativeCache
from .dram import DRAM
from .hierarchy import MemoryHierarchy
from .mainmemory import MainMemory
from .prefetcher import StreamPrefetcher
from .replacement import DRRIPPolicy, make_policy
from .stats import CacheStats, DRAMStats

__all__ = ["CacheLine", "CacheStats", "DRAM", "DRAMStats", "DRRIPPolicy",
           "MainMemory", "MemoryHierarchy", "SetAssociativeCache",
           "StreamPrefetcher", "make_policy"]
