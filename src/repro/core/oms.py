"""The Overlay Memory Store (OMS) — Section 4.4.

The OMS is the region of main memory where overlays are stored compactly.
It is managed entirely by the memory controller with minimal OS
interaction; the OS is only involved when the controller runs out of 4KB
segments and must be handed more pages (Section 4.5).

Layout (Sections 4.4.1-4.4.3):

* Overlays live in **segments** of five fixed sizes: 256B, 512B, 1KB, 2KB
  and 4KB.  Each overlay occupies the smallest segment that fits it.
* A segment smaller than 4KB dedicates its first cache line to metadata:
  an array of 64 five-bit slot pointers (one per cache line of the virtual
  page) plus a 32-bit free-slot vector — 352 bits total (Figure 7).  The
  remaining lines are data slots, so a 256B segment holds up to 3 overlay
  lines, a 512B segment 7, a 1KB segment 15, and a 2KB segment 31.
* A 4KB segment stores no metadata: each overlay line lives at the same
  offset it has within the virtual page.
* Free segments of each size are kept on a linked list threaded through
  the free segments themselves; a grouped variant (as in classic
  file systems) amortises pointer-maintenance traffic.  When a size class
  is exhausted the controller splits a segment of the next size up; when
  4KB segments run out it requests fresh pages from the OS.

Every mutating operation reports how many main-memory line transfers it
performed so the timing model can charge for them.  The paper's key point
— that allocation and relocation happen only on dirty-line writeback,
off the critical path — is preserved: callers invoke these operations
from the writeback path only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .address import LINE_SIZE, LINES_PER_PAGE, PAGE_SIZE
from ..engine.component import Component
from ..engine.tracing import HOOKS

#: The five fixed segment sizes, smallest first (Section 4.4.2).
SEGMENT_SIZES = (256, 512, 1024, 2048, 4096)

#: Lines of metadata at the head of a sub-4KB segment (Figure 7).
METADATA_LINES = 1

#: Free segments per group of the grouped linked list (Section 4.4.3):
#: only every GROUP_SIZE-th push or pop touches a group header line.
GROUP_SIZE = 8


def counter_page_source(first_frame: int = 0) -> Callable[[int], List[int]]:
    """A page source for an OMS with no OS allocator behind it.

    Each request hands out the next consecutive 4KB frames from
    *first_frame*, as page base addresses.  It is a plain function, so
    the OMS holds no reference back to its owner.
    """
    frames = itertools.count(first_frame)

    def request_pages(pages: int) -> List[int]:
        return [next(frames) * PAGE_SIZE for _ in range(pages)]
    return request_pages


def data_slot_capacity(segment_size: int) -> int:
    """Number of overlay cache lines a segment of *segment_size* can hold."""
    if segment_size not in SEGMENT_SIZES:
        raise ValueError(f"{segment_size} is not a valid segment size")
    total_lines = segment_size // LINE_SIZE
    if segment_size == PAGE_SIZE:
        return total_lines  # 4KB segments carry no metadata line.
    return total_lines - METADATA_LINES


def smallest_segment_for(line_count: int) -> int:
    """Return the smallest segment size that can hold *line_count* lines."""
    if line_count < 0:
        raise ValueError("line count cannot be negative")
    if line_count > LINES_PER_PAGE:
        raise ValueError(f"an overlay holds at most {LINES_PER_PAGE} lines")
    for size in SEGMENT_SIZES:
        if data_slot_capacity(size) >= line_count:
            return size
    return PAGE_SIZE


class OMSError(RuntimeError):
    """Raised on invalid Overlay Memory Store operations."""


class OutOfOverlayMemory(OMSError):
    """Raised when the OMS cannot obtain pages from the OS."""


@dataclass
class Segment:
    """A contiguous OMS region holding one overlay.

    ``slot_pointers`` mirrors the hardware metadata line: for each of the
    64 virtual-page lines it holds the data-slot index storing that line,
    or None.  ``slots`` holds the actual line data per slot index.
    """

    base: int
    size: int
    slot_pointers: List[Optional[int]] = field(
        default_factory=lambda: [None] * LINES_PER_PAGE)
    slots: Dict[int, bytes] = field(default_factory=dict)

    @property
    def capacity(self) -> int:
        return data_slot_capacity(self.size)

    @property
    def line_count(self) -> int:
        return len(self.slots)

    @property
    def is_direct_mapped(self) -> bool:
        """4KB segments place line *i* at slot *i* with no metadata."""
        return self.size == PAGE_SIZE

    def has_line(self, line: int) -> bool:
        return self.slot_pointers[line] is not None

    def line_address(self, line: int) -> int:
        """DRAM byte address of line *line*, which must be present.

        A 4KB segment is direct-mapped (line *i* is its line *i*); a
        smaller one starts with its metadata line, so data slot *s* is
        its line *s* + 1.
        """
        if self.size == PAGE_SIZE:
            return self.base + line * LINE_SIZE
        return self.base + (self.slot_pointers[line] + 1) * LINE_SIZE

    def mapped_lines(self) -> List[int]:
        return [i for i, slot in enumerate(self.slot_pointers) if slot is not None]

    def read_line(self, line: int) -> bytes:
        """Return the 64 bytes stored for virtual-page line *line*."""
        slot = self.slot_pointers[line]
        if slot is None:
            raise OMSError(f"line {line} is not present in segment @{self.base:#x}")
        return self.slots[slot]

    def _free_slot(self) -> Optional[int]:
        if self.is_direct_mapped:
            return None  # caller uses the line index directly
        for slot in range(self.capacity):
            if slot not in self.slots:
                return slot
        return None

    def write_line(self, line: int, data: bytes) -> bool:
        """Store *data* for *line*; return False if the segment is full."""
        if len(data) != LINE_SIZE:
            raise ValueError(f"line data must be {LINE_SIZE} bytes, got {len(data)}")
        slot = self.slot_pointers[line]
        if slot is None:
            if self.is_direct_mapped:
                slot = line
            else:
                slot = self._free_slot()
                if slot is None:
                    return False
            self.slot_pointers[line] = slot
        self.slots[slot] = data
        return True


@dataclass
class OMSStats:
    """Counters for Overlay Memory Store activity."""

    segments_allocated: int = 0
    segments_freed: int = 0
    segment_splits: int = 0
    segment_coalesces: int = 0
    segment_migrations: int = 0
    os_page_requests: int = 0
    line_writes: int = 0
    line_reads: int = 0
    memory_line_transfers: int = 0


class OverlayMemoryStore(Component):
    """Memory-controller-managed store of compact overlays (Section 4.4).

    Parameters
    ----------
    request_pages:
        Callback invoked with a page count, for the initial pages and
        then for one page whenever all free lists are empty; must return
        a list of page base addresses freshly granted by the OS, or an
        empty list when the OS itself is out of memory.  Models the rare,
        off-critical path OS interaction of Section 4.5.
    initial_pages:
        Number of 4KB pages the OS proactively grants at startup
        (Section 4.4.3 — "During system startup, the OS proactively
        allocates a chunk of free pages to the memory controller").
    page_per_overlay:
        Section 4.4's simpler management alternative: "let the memory
        controller manage the OMS by using a full physical page to store
        each overlay.  While this approach will forgo the memory capacity
        benefit of our framework, it will still obtain the benefit of
        reducing overall work."  When True, every overlay gets a 4KB
        direct-mapped segment and no migrations ever happen.
    """

    def __init__(self,
                 request_pages: Optional[Callable[[int], List[int]]] = None,
                 initial_pages: int = 16,
                 page_per_overlay: bool = False):
        super().__init__("oms")
        self._request_pages = request_pages or counter_page_source()
        self._page_per_overlay = page_per_overlay
        self._free_lists: Dict[int, List[int]] = {size: [] for size in SEGMENT_SIZES}
        self._segments: Dict[int, Segment] = {}
        self.stats = OMSStats()
        self.stats_scope.own_block(self.stats)
        if initial_pages:
            self._grant_pages(self._request_pages(initial_pages))

    # -- free-space management (Section 4.4.3) ----------------------------

    def _grant_pages(self, page_bases: List[int]) -> None:
        self._free_lists[PAGE_SIZE].extend(page_bases)

    def _obtain_free_base(self, size: int) -> int:
        """Pop a free segment base of *size*, splitting/refilling as needed."""
        free = self._free_lists[size]
        if free:
            # Grouped linked list: only every GROUP_SIZE-th pop touches
            # the group header line in memory.
            if len(free) % GROUP_SIZE == 0:
                self.stats.memory_line_transfers += 1
            return free.pop()
        if size == PAGE_SIZE:
            pages = self._request_pages(1)
            self.stats.os_page_requests += 1
            if not pages:
                raise OutOfOverlayMemory("OS has no pages for the overlay store")
            self._grant_pages(pages)
            return self._obtain_free_base(size)
        # Split a segment of the next size up into two halves.
        larger = SEGMENT_SIZES[SEGMENT_SIZES.index(size) + 1]
        base = self._obtain_free_base(larger)
        self.stats.segment_splits += 1
        self.stats.memory_line_transfers += 1  # rewrite one free-list pointer
        self._free_lists[size].append(base + size)
        return base

    def _release_base(self, base: int, size: int) -> None:
        self._free_lists[size].append(base)
        if len(self._free_lists[size]) % GROUP_SIZE == 0:
            self.stats.memory_line_transfers += 1

    def coalesce(  # simlint: disable=SL007 kept for free-space reuse
            self) -> int:
        """Merge free buddy segments back into larger ones.

        The inverse of splitting (Section 4.4.3): two adjacent free
        segments of one size whose pair is aligned to the next size up
        merge into one free segment of that size.  Run periodically (it
        is a background/maintenance operation, never on the critical
        path) to undo the fragmentation that bursts of small overlays
        leave behind.  Returns the number of merges performed.
        """
        merged_total = 0
        for index, size in enumerate(SEGMENT_SIZES[:-1]):
            larger = SEGMENT_SIZES[index + 1]
            free = sorted(self._free_lists[size])
            survivors: List[int] = []
            i = 0
            while i < len(free):
                buddy_pair = (i + 1 < len(free)
                              and free[i] % larger == 0
                              and free[i + 1] == free[i] + size)
                if buddy_pair:
                    self._free_lists[larger].append(free[i])
                    self.stats.segment_coalesces += 1
                    self.stats.memory_line_transfers += 1  # list rewrite
                    merged_total += 1
                    i += 2
                else:
                    survivors.append(free[i])
                    i += 1
            self._free_lists[size] = survivors
        return merged_total

    # -- segment lifecycle -------------------------------------------------

    def allocate_segment(self, line_count: int = 1) -> Segment:
        """Allocate the smallest segment that can hold *line_count* lines
        (or a full page in ``page_per_overlay`` mode)."""
        size = (PAGE_SIZE if self._page_per_overlay
                else smallest_segment_for(line_count))
        base = self._obtain_free_base(size)
        segment = Segment(base=base, size=size)
        self._segments[base] = segment
        self.stats.segments_allocated += 1
        if not segment.is_direct_mapped:
            self.stats.memory_line_transfers += 1  # initialise metadata line
        if HOOKS.active is not None:
            HOOKS.active.emit(None, "oms", "oms.allocate",
                              {"base": base, "size": size,
                               "lines": line_count})
        return segment

    def free_segment(self, segment: Segment) -> None:
        """Return *segment* to the free store (overlay discarded/committed)."""
        if self._segments.pop(segment.base, None) is None:
            raise OMSError(f"segment @{segment.base:#x} is not live")
        self._release_base(segment.base, segment.size)
        self.stats.segments_freed += 1
        if HOOKS.active is not None:
            HOOKS.active.emit(None, "oms", "oms.free",
                              {"base": segment.base, "size": segment.size})

    def migrate(self, segment: Segment) -> Segment:
        """Move *segment* into the next larger size, copying its lines.

        Used when a dirty-line writeback finds the current segment full
        (Section 4.4.2).  Returns the new segment; the old one is freed.
        """
        if segment.size == PAGE_SIZE:
            raise OMSError("cannot grow a 4KB segment")
        new_size = SEGMENT_SIZES[SEGMENT_SIZES.index(segment.size) + 1]
        base = self._obtain_free_base(new_size)
        new_segment = Segment(base=base, size=new_size)
        for line in segment.mapped_lines():
            new_segment.write_line(line, segment.read_line(line))
        # Copy cost: read + write per line, plus both metadata lines.
        moved = segment.line_count
        self.stats.memory_line_transfers += 2 * moved + 2
        self._segments[base] = new_segment
        del self._segments[segment.base]
        self._release_base(segment.base, segment.size)
        self.stats.segment_migrations += 1
        if HOOKS.active is not None:
            HOOKS.active.emit(None, "oms", "oms.migrate",
                              {"base": segment.base, "size": segment.size,
                               "new_base": base, "new_size": new_size,
                               "lines": moved})
        return new_segment

    # -- line access (called from the writeback / fill paths) --------------

    def write_line(self, segment: Segment, line: int, data: bytes) -> Segment:
        """Write back a dirty overlay line; grows the segment when full.

        Returns the segment now holding the overlay (a new, larger one if
        a migration was required), so callers must update their OMT entry
        with the returned segment.
        """
        while not segment.write_line(line, data):
            segment = self.migrate(segment)
        self.stats.line_writes += 1
        self.stats.memory_line_transfers += 1
        return segment

    def read_line(self, segment: Segment, line: int) -> bytes:
        """Fetch an overlay line on a full cache-hierarchy miss."""
        data = segment.read_line(line)
        self.stats.line_reads += 1
        self.stats.memory_line_transfers += 1
        return data

    # -- capacity accounting ------------------------------------------------

    @property
    def allocated_bytes(self) -> int:
        """Bytes of main memory consumed by live segments."""
        return sum(segment.size for segment in self._segments.values())

    def free_list_snapshot(self) -> Dict[int, Tuple[int, ...]]:
        """Per-size free segment bases (invariant checking; read-only)."""
        return {size: tuple(bases)
                for size, bases in self._free_lists.items()}

    def live_segments(self) -> List[Segment]:
        """Every live segment, sorted by base address (invariant checks)."""
        return [self._segments[base] for base in sorted(self._segments)]
