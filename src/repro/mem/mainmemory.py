"""Byte-accurate main memory backing store.

Separate from the DRAM *timing* model (:mod:`repro.mem.dram`): this module
holds the actual bytes of regular physical pages so that data-fidelity
techniques (deduplication, checkpointing, speculation, overlay promotion)
can assert on contents.

A frame is a list of 64 immutable 64-byte line objects, the same form in
which the caches and the Overlay Memory Store hold a line, so moving a line
between them is a reference move.  Frames are created lazily; an unwritten
line is the one shared :data:`~repro.core.address.ZERO_LINE`, which also
gives the sparse-data-structure technique its zero page for free.  A page
that is one line repeated (a fill pattern, a zero page) shares that one
object across the frame.
"""

from __future__ import annotations

from typing import Dict, Iterator, List

from ..core.address import LINE_SIZE, LINES_PER_PAGE, PAGE_SIZE, ZERO_LINE


class MainMemory:
    """A dictionary of physical frames holding real data bytes."""

    def __init__(self):
        self._frames: Dict[int, List[bytes]] = {}

    def _frame(self, ppn: int) -> List[bytes]:
        frame = self._frames.get(ppn)
        if frame is None:
            frame = [ZERO_LINE] * LINES_PER_PAGE
            self._frames[ppn] = frame
        return frame

    # -- line granularity ------------------------------------------------------

    def read_line(self, ppn: int, line: int) -> bytes:
        """Return the 64-byte line object *line* of frame *ppn*."""
        if not 0 <= line < LINES_PER_PAGE:
            raise IndexError(f"line index {line} out of range")
        frame = self._frames.get(ppn)
        return ZERO_LINE if frame is None else frame[line]

    def write_line(self, ppn: int, line: int, data: bytes) -> None:
        """Store *data* as line *line*; a mutable buffer is copied."""
        if len(data) != LINE_SIZE:
            raise ValueError(f"line data must be {LINE_SIZE} bytes")
        if not 0 <= line < LINES_PER_PAGE:
            raise IndexError(f"line index {line} out of range")
        self._frame(ppn)[line] = bytes(data)

    # -- page granularity ----------------------------------------------------

    def read_page(self, ppn: int) -> bytes:  # simlint: disable=SL007 oracle
        frame = self._frames.get(ppn)
        return b"".join(frame) if frame is not None else bytes(PAGE_SIZE)

    def write_page(self, ppn: int, data: bytes) -> None:
        if len(data) != PAGE_SIZE:
            raise ValueError(f"page data must be {PAGE_SIZE} bytes")
        first = bytes(data[:LINE_SIZE])
        if data == first * LINES_PER_PAGE:
            self._frames[ppn] = [first] * LINES_PER_PAGE
        else:
            data = bytes(data)
            self._frames[ppn] = [data[start:start + LINE_SIZE]
                                 for start in range(0, PAGE_SIZE, LINE_SIZE)]

    def copy_page(self, src_ppn: int, dst_ppn: int) -> None:
        """Copy a whole frame (the copy-on-write baseline's page copy)."""
        frame = self._frames.get(src_ppn)
        self._frames[dst_ppn] = ([ZERO_LINE] * LINES_PER_PAGE if frame is None
                                 else frame[:])

    # -- byte granularity (convenience for examples) ----------------------------

    def read_bytes(self, ppn: int, offset: int, length: int) -> bytes:
        if length < 0 or not 0 <= offset <= PAGE_SIZE - length:
            raise IndexError("byte range crosses the frame boundary")
        frame = self._frames.get(ppn)
        if frame is None:
            return bytes(length)
        first, start = divmod(offset, LINE_SIZE)
        end = (offset + length + LINE_SIZE - 1) // LINE_SIZE
        return b"".join(frame[first:end])[start:start + length]

    def write_bytes(self, ppn: int, offset: int, data: bytes) -> None:
        if not 0 <= offset <= PAGE_SIZE - len(data):
            raise IndexError("byte range crosses the frame boundary")
        frame = self._frame(ppn)
        first, start = divmod(offset, LINE_SIZE)
        end = (offset + len(data) + LINE_SIZE - 1) // LINE_SIZE
        span = bytearray(b"".join(frame[first:end]))
        span[start:start + len(data)] = data
        frame[first:end] = [bytes(span[i:i + LINE_SIZE])
                            for i in range(0, len(span), LINE_SIZE)]

    # -- accounting -------------------------------------------------------------

    def frames(self) -> Iterator[int]:
        return iter(self._frames)
