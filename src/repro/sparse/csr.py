"""Compressed Sparse Row (CSR) — the state-of-the-art software baseline
of Section 5.2 [26].

CSR keeps three arrays: ``values`` (8B doubles), ``col_idx`` (4B ints)
and ``row_ptr`` (4B ints).  Its costs, as the paper describes them: about
1.5x extra metadata bytes per non-zero (12B stored per 8B value), and an
extra indexed load per non-zero to gather ``x[col_idx[i]]`` during SpMV.
Dynamic insertion requires shifting both arrays — the operation
:meth:`CSRMatrix.insert_cost_elements` quantifies and the overlay
representation avoids.
"""

from __future__ import annotations

import struct
from typing import List

import numpy as np

from .pattern import MatrixPattern, VALUE_BYTES
from ..core.address import PAGE_SIZE
from ..cpu.trace import MemoryAccess, Trace

INDEX_BYTES = 4
#: Loop/indexing instructions per non-zero in the CSR SpMV inner loop.
CSR_GAP_PER_NNZ = 4


class CSRMatrix:
    """CSR layout of a :class:`MatrixPattern` in simulated memory."""

    name = "csr"

    def __init__(self, pattern: MatrixPattern):
        self.pattern = pattern
        self.values: List[float] = []
        self.col_idx: List[int] = []
        self.row_ptr: List[int] = [0]
        for row in range(pattern.rows):
            cols = pattern.data.get(row, {})
            for col in sorted(cols):
                self.values.append(cols[col])
                self.col_idx.append(col)
            self.row_ptr.append(len(self.values))
        self.values_vaddr = 0
        self.col_vaddr = 0
        self.rowptr_vaddr = 0

    # -- capacity ----------------------------------------------------------------

    def memory_bytes(self) -> int:
        """Exact CSR footprint: 12B per non-zero + 4B per row pointer."""
        return (len(self.values) * VALUE_BYTES
                + len(self.col_idx) * INDEX_BYTES
                + len(self.row_ptr) * INDEX_BYTES)

    # -- placement -----------------------------------------------------------------

    def build(self, kernel, process, base_vpn: int) -> None:
        """Lay the three arrays out in consecutive virtual regions."""
        values_raw = struct.pack(f"<{len(self.values)}d", *self.values)
        col_raw = struct.pack(f"<{len(self.col_idx)}i", *self.col_idx)
        rowptr_raw = struct.pack(f"<{len(self.row_ptr)}i", *self.row_ptr)

        vpn = base_vpn
        self.values_vaddr = vpn * PAGE_SIZE
        vpn += kernel.map_data(process, vpn, values_raw)
        self.col_vaddr = vpn * PAGE_SIZE
        vpn += kernel.map_data(process, vpn, col_raw)
        self.rowptr_vaddr = vpn * PAGE_SIZE
        kernel.map_data(process, vpn, rowptr_raw)

    # -- SpMV --------------------------------------------------------------------------

    def spmv_trace(self, x_vaddr: int, y_vaddr: int) -> Trace:
        """One y = A·x iteration over the CSR arrays.

        Per non-zero: a sequential value load, a sequential column-index
        load, and the indexed gather of ``x[col]`` the paper charges CSR
        for.  Per row: a row-pointer load and a store of ``y[row]``.
        """
        accesses = []
        append = accesses.append
        values_vaddr, col_vaddr = self.values_vaddr, self.col_vaddr
        rowptr_vaddr, col_idx, row_ptr = (self.rowptr_vaddr, self.col_idx,
                                          self.row_ptr)
        for row in range(self.pattern.rows):
            # MemoryAccess(vaddr, write, size, data, gap)
            append(MemoryAccess(rowptr_vaddr + row * INDEX_BYTES, False,
                                INDEX_BYTES, None, 1))
            start, end = row_ptr[row], row_ptr[row + 1]
            for i in range(start, end):
                append(MemoryAccess(values_vaddr + i * VALUE_BYTES, False,
                                    VALUE_BYTES, None, CSR_GAP_PER_NNZ))
                append(MemoryAccess(col_vaddr + i * INDEX_BYTES, False,
                                    INDEX_BYTES, None, 0))
                append(MemoryAccess(x_vaddr + col_idx[i] * VALUE_BYTES,
                                    False, VALUE_BYTES, None, 0))
            if end > start:
                append(MemoryAccess(y_vaddr + row * VALUE_BYTES, True,
                                    VALUE_BYTES, None, 1))
        return Trace(accesses)

    def multiply(self, x: np.ndarray) -> np.ndarray:
        """Functional SpMV over the CSR arrays themselves."""
        y = np.zeros(self.pattern.rows)
        for row in range(self.pattern.rows):
            acc = 0.0
            for i in range(self.row_ptr[row], self.row_ptr[row + 1]):
                acc += self.values[i] * x[self.col_idx[i]]
            y[row] = acc
        return y

    # -- dynamic updates (the cost overlays avoid) ------------------------------------------

    def insert_cost_elements(self, row: int) -> int:
        """Array elements that must shift to insert a non-zero in *row*.

        Every value and column index after the insertion point moves, and
        every later row pointer is incremented — the "costly and complex"
        dynamic-update behaviour of software representations (Section 5.2).
        """
        insert_at = self.row_ptr[row + 1]
        shifted = len(self.values) - insert_at
        rowptr_updates = len(self.row_ptr) - (row + 1)
        return 2 * shifted + rowptr_updates

    def insert(self, row: int, col: int, value: float) -> int:
        """Insert a non-zero, returning the number of elements moved."""
        cost = self.insert_cost_elements(row)
        insert_at = self.row_ptr[row + 1]
        for i in range(self.row_ptr[row], self.row_ptr[row + 1]):
            if self.col_idx[i] == col:
                self.values[i] = value
                return 0
            if self.col_idx[i] > col:
                insert_at = i
                break
        self.values.insert(insert_at, value)
        self.col_idx.insert(insert_at, col)
        for r in range(row + 1, len(self.row_ptr)):
            self.row_ptr[r] += 1
        self.pattern.set(row, col, value)
        return cost
