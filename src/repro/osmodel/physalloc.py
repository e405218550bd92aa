"""Physical frame allocator.

A free-list allocator over a fixed pool of 4KB frames, with reference
counting for frames shared in copy-on-write mode and high-water-mark
accounting, which is what the Figure 8 "additional memory consumed"
series measures on the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


class OutOfMemory(RuntimeError):
    """Raised when the frame pool is exhausted."""


@dataclass
class FrameAllocator:
    """Fixed pool of physical frames with refcounts."""

    total_frames: int = 1 << 20
    first_frame: int = 1
    _next_unused: int = field(init=False)
    _free: List[int] = field(default_factory=list)
    _refcounts: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        self._next_unused = self.first_frame

    # -- allocation -------------------------------------------------------------

    def allocate(self) -> int:
        """Allocate a frame with refcount 1."""
        if self._free:
            ppn = self._free.pop()
        else:
            if self._next_unused >= self.first_frame + self.total_frames:
                raise OutOfMemory("physical frame pool exhausted")
            ppn = self._next_unused
            self._next_unused += 1
        self._refcounts[ppn] = 1
        return ppn

    def allocate_contiguous(self, count: int, align: int = 1) -> List[int]:
        """Allocate *count* physically contiguous frames, the run aligned
        to *align* frames (super-pages need 512-frame-aligned runs)."""
        start = self._next_unused
        if align > 1:
            start += (-start) % align
        if start + count > self.first_frame + self.total_frames:
            raise OutOfMemory("no contiguous run available")
        # Frames skipped for alignment go to the free list.
        for ppn in range(self._next_unused, start):
            self._free.append(ppn)
        self._next_unused = start + count
        frames = list(range(start, start + count))
        for ppn in frames:
            self._refcounts[ppn] = 1
        return frames

    def share(self, ppn: int, count: int = 1) -> int:
        """Add *count* references to *ppn* (fork sharing, or a frame
        mapped at many pages); returns the new refcount."""
        if ppn not in self._refcounts:
            raise KeyError(f"frame {ppn:#x} is not allocated")
        self._refcounts[ppn] += count
        return self._refcounts[ppn]

    def release(self, ppn: int) -> int:
        """Drop one reference; frees the frame at zero.  Returns the
        remaining refcount."""
        count = self._refcounts.get(ppn)
        if count is None:
            raise KeyError(f"frame {ppn:#x} is not allocated")
        if count == 1:
            del self._refcounts[ppn]
            self._free.append(ppn)
            return 0
        self._refcounts[ppn] = count - 1
        return count - 1

    def refcount(self, ppn: int) -> int:
        return self._refcounts.get(ppn, 0)

    # -- accounting ---------------------------------------------------------------

    @property
    def frames_in_use(self) -> int:
        return len(self._refcounts)

    @property
    def bytes_in_use(self) -> int:
        return self.frames_in_use * 4096
