"""Dense-matrix representation (the paper's baseline in Section 5.2's
sparsity sweep).

The matrix is laid out row-major as 8-byte doubles in simulated memory;
every page is backed by a private physical frame, and SpMV touches every
cache line whether or not it holds non-zero data.
"""

from __future__ import annotations

import numpy as np

from .pattern import MatrixPattern, VALUE_BYTES, VALUES_PER_LINE
from ..core.address import LINE_SIZE, PAGE_SIZE
from ..cpu.trace import MemoryAccess, Trace

#: Instructions of FP work per dense cache line (8 fused multiply-adds).
FMA_GAP_PER_LINE = VALUES_PER_LINE


class DenseMatrix:
    """Row-major dense layout of a :class:`MatrixPattern`."""

    name = "dense"

    def __init__(self, pattern: MatrixPattern):
        if pattern.cols % VALUES_PER_LINE:
            raise ValueError("column count must be a multiple of 8 "
                             "(lines must not cross rows)")
        self.pattern = pattern
        self.base_vaddr = 0
        self._built = False

    # -- capacity --------------------------------------------------------------

    def memory_bytes(self) -> int:
        """Full dense footprint, rounded up to whole pages."""
        raw = self.pattern.rows * self.pattern.cols * VALUE_BYTES
        return ((raw + PAGE_SIZE - 1) // PAGE_SIZE) * PAGE_SIZE

    @property
    def total_lines(self) -> int:
        return (self.pattern.rows * self.pattern.cols) // VALUES_PER_LINE

    # -- placement into simulated memory --------------------------------------------

    def build(self, kernel, process, base_vpn: int) -> None:
        """Map the dense matrix at *base_vpn* and write its bytes."""
        kernel.map_data(process, base_vpn, np.ascontiguousarray(
            self.pattern.to_numpy(), dtype="<f8").tobytes())
        self.base_vaddr = base_vpn * PAGE_SIZE
        self._built = True

    # -- SpMV ------------------------------------------------------------------------

    def spmv_trace(self, x_vaddr: int, y_vaddr: int) -> Trace:
        """One y = A·x iteration: every matrix line is read."""
        trace = Trace()
        cols = self.pattern.cols
        lines_per_row = cols // VALUES_PER_LINE
        for row in range(self.pattern.rows):
            for line_in_row in range(lines_per_row):
                flat_line = row * lines_per_row + line_in_row
                trace.append(MemoryAccess(
                    vaddr=self.base_vaddr + flat_line * LINE_SIZE,
                    gap=FMA_GAP_PER_LINE))
                # The x sub-vector for these 8 columns is one line.
                trace.append(MemoryAccess(
                    vaddr=x_vaddr + line_in_row * LINE_SIZE, gap=0))
            trace.append(MemoryAccess(
                vaddr=y_vaddr + row * VALUE_BYTES, write=True, gap=1))
        return trace

    def multiply(self, x: np.ndarray) -> np.ndarray:
        """Functional reference result."""
        return self.pattern.to_numpy() @ x
