"""The overlay sparse-matrix representation (Section 5.2).

Every virtual page of the (virtually dense) matrix maps to one shared
**zero physical page**; each page's non-zero cache lines are installed in
its overlay.  Reads of zero lines hit the zero page; reads of non-zero
lines hit the overlay — the framework's access semantics give a dense
view of a compactly stored sparse matrix, for free.

SpMV uses the paper's *computation over overlays* model: software (with
hardware support) iterates only the overlay (non-zero) lines, skipping
zero lines entirely, and the hardware prefetches overlay lines because it
knows the overlay organisation.  Dynamic insertion of a non-zero is just
an overlaying write — no array shifting as in CSR.
"""

from __future__ import annotations

import struct
from typing import Optional

import numpy as np

from .pattern import MatrixPattern, VALUE_BYTES, VALUES_PER_LINE
from ..core.address import (LINE_SIZE, PAGE_SIZE, line_index,
                            overlay_page_number, page_number)
from ..cpu.trace import MemoryAccess, Trace

#: FP instructions per overlay line processed (8 fused multiply-adds).
FMA_GAP_PER_LINE = VALUES_PER_LINE
#: Lines per page (import indirection kept local to avoid cycles).
LINES_PER_PAGE = PAGE_SIZE // LINE_SIZE


class OverlaySparseMatrix:
    """Sparse matrix stored as overlays over a shared zero page."""

    name = "overlay"

    def __init__(self, pattern: MatrixPattern):
        if pattern.cols % VALUES_PER_LINE:
            raise ValueError("column count must be a multiple of 8 "
                             "(lines must not cross rows)")
        self.pattern = pattern
        self.base_vaddr = 0
        self.zero_ppn: Optional[int] = None
        self._kernel = None
        self._process = None
        self._built = False

    # -- capacity -----------------------------------------------------------------

    @property
    def npages(self) -> int:
        raw = self.pattern.rows * self.pattern.cols * VALUE_BYTES
        return (raw + PAGE_SIZE - 1) // PAGE_SIZE

    def memory_bytes(self) -> int:
        """Overlay footprint under the paper's accounting: the cache
        lines actually present in the overlays (Section 2.3: "for each
        overlay, store only the cache lines that are actually present"),
        plus the single shared zero frame.  Segment-size quantisation is
        studied in the segment-ladder ablation."""
        return len(self.pattern.nonzero_lines()) * LINE_SIZE + PAGE_SIZE

    # -- placement ------------------------------------------------------------------

    def _line_bytes(self, flat_line: int) -> bytes:
        """Pack the 8 doubles of dense line *flat_line*."""
        row, first = divmod(flat_line * VALUES_PER_LINE, self.pattern.cols)
        row_data = self.pattern.data.get(row, {})
        return struct.pack(f"<{VALUES_PER_LINE}d", *[
            row_data.get(col, 0.0)
            for col in range(first, first + VALUES_PER_LINE)])

    def build(self, kernel, process, base_vpn: int) -> None:
        """Map all pages to one zero frame and install non-zero overlays."""
        system = kernel.system
        self.zero_ppn = kernel.allocator.allocate()  # the shared zero page
        kernel.map_shared(process, range(base_vpn, base_vpn + self.npages),
                          self.zero_ppn)
        for flat_line in self.pattern.nonzero_lines():
            vpn = base_vpn + flat_line // LINES_PER_PAGE
            line = flat_line % LINES_PER_PAGE
            system.install_overlay_line(process.asid, vpn, line,
                                        self._line_bytes(flat_line))
        self.base_vaddr = base_vpn * PAGE_SIZE
        self._kernel = kernel
        self._process = process
        self._built = True

    # -- SpMV -----------------------------------------------------------------------------

    def spmv_trace(self, x_vaddr: int, y_vaddr: int) -> Trace:
        """One y = A·x iteration touching only non-zero (overlay) lines."""
        lines_per_row = self.pattern.cols // VALUES_PER_LINE
        base_vaddr = self.base_vaddr
        accesses = []
        append = accesses.append
        last_row = -1
        for flat_line in self.pattern.nonzero_lines():
            row, line_in_row = divmod(flat_line, lines_per_row)
            # MemoryAccess(vaddr, write, size, data, gap)
            append(MemoryAccess(base_vaddr + flat_line * LINE_SIZE, False,
                                VALUE_BYTES, None, FMA_GAP_PER_LINE))
            append(MemoryAccess(x_vaddr + line_in_row * LINE_SIZE, False,
                                VALUE_BYTES, None, 0))
            if row != last_row:
                append(MemoryAccess(y_vaddr + row * VALUE_BYTES, True,
                                    VALUE_BYTES, None, 1))
                last_row = row
        return Trace(accesses)

    def multiply(self, x: np.ndarray) -> np.ndarray:
        """Functional reference result from the pattern."""
        return self.pattern.to_numpy() @ x

    def multiply_in_simulator(self, x: np.ndarray) -> np.ndarray:
        """SpMV computed from the *simulated memory itself*.

        Reads every non-zero line back through the framework's access
        semantics (overlay over zero page) and accumulates — the
        end-to-end data-fidelity check for the representation.
        """
        if not self._built:
            raise RuntimeError("matrix has not been built into a simulator")
        system = self._kernel.system
        asid = self._process.asid
        cols = self.pattern.cols
        y = np.zeros(self.pattern.rows)
        for flat_line in self.pattern.nonzero_lines():
            vaddr = self.base_vaddr + flat_line * LINE_SIZE
            raw = system.line_bytes(asid, page_number(vaddr),
                                    line_index(vaddr))
            values = struct.unpack(f"<{VALUES_PER_LINE}d", raw)
            base = flat_line * VALUES_PER_LINE
            for offset, value in enumerate(values):
                if value:
                    flat = base + offset
                    y[flat // cols] += value * x[flat % cols]
        return y

    # -- dynamic updates (Section 5.2's closing argument) -----------------------------------

    def insert(self, row: int, col: int, value: float) -> int:
        """Insert/update a non-zero; returns lines newly added to overlays.

        "Dynamically inserting non-zero values into a sparse matrix is as
        simple as moving a cache line to the overlay" — one overlay-line
        install, no array shifting.
        """
        if not self._built:
            raise RuntimeError("matrix has not been built into a simulator")
        self.pattern.set(row, col, value)
        flat = self.pattern.flat_index(row, col)
        flat_line = flat // VALUES_PER_LINE
        vpn = page_number(self.base_vaddr) + flat_line // LINES_PER_PAGE
        line = flat_line % LINES_PER_PAGE
        system = self._kernel.system
        entry = system.controller.omt.lookup(
            overlay_page_number(self._process.asid, vpn))
        newly_added = 0 if (entry is not None
                            and entry.obitvector.is_set(line)) else 1
        system.install_overlay_line(self._process.asid, vpn, line,
                                    self._line_bytes(flat_line))
        return newly_added
