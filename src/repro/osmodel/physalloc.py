"""Physical frame allocator.

A free-list allocator over a fixed pool of 4KB frames with
high-water-mark accounting, which is what the Figure 8 "additional
memory consumed" series measures on the baseline.  Who maps a frame is
the kernel's record (:attr:`repro.osmodel.kernel.Kernel.frame_users`);
the kernel frees a frame when its last mapping goes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set


class OutOfMemory(RuntimeError):
    """Raised when the frame pool is exhausted."""


@dataclass
class FrameAllocator:
    """Fixed pool of physical frames; a freed frame is handed out first."""

    total_frames: int = 1 << 20
    first_frame: int = 1
    _next_unused: int = field(init=False)
    _free: List[int] = field(default_factory=list)
    _in_use: Set[int] = field(default_factory=set)

    def __post_init__(self):
        self._next_unused = self.first_frame

    # -- allocation -------------------------------------------------------------

    def allocate(self) -> int:
        """Allocate one frame."""
        if self._free:
            ppn = self._free.pop()
        else:
            if self._next_unused >= self.first_frame + self.total_frames:
                raise OutOfMemory("physical frame pool exhausted")
            ppn = self._next_unused
            self._next_unused += 1
        self._in_use.add(ppn)
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
        self._in_use.update(frames)
        return frames

    def free(self, ppn: int) -> None:
        """Return *ppn* to the pool; the next :meth:`allocate` reuses it."""
        if ppn not in self._in_use:
            raise KeyError(f"frame {ppn:#x} is not allocated")
        self._in_use.remove(ppn)
        self._free.append(ppn)

    # -- accounting ---------------------------------------------------------------

    @property
    def frames_in_use(self) -> int:
        return len(self._in_use)

    @property
    def bytes_in_use(self) -> int:
        return self.frames_in_use * 4096
