"""Sparse-matrix patterns: the substrate shared by every representation.

A :class:`MatrixPattern` stores the non-zero structure and values of a
sparse matrix plus the geometry helpers the paper's analysis needs —
most importantly the **non-zero value locality** metric ``L`` (Section
5.2): the average number of non-zero values per non-zero cache line,
assuming the row-major dense layout of 8-byte doubles that the overlay
representation uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Set, Tuple

import numpy as np

#: Bytes per matrix element (double-precision floating point).
VALUE_BYTES = 8
#: Values per 64B cache line.
VALUES_PER_LINE = 64 // VALUE_BYTES


@dataclass
class MatrixPattern:
    """A sparse matrix as shape + coordinate/value maps."""

    rows: int
    cols: int
    #: row -> {col: value}
    data: Dict[int, Dict[int, float]] = field(default_factory=dict)
    name: str = "synthetic"

    def set(self, row: int, col: int, value: float) -> None:
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise IndexError(f"({row}, {col}) outside {self.rows}x{self.cols}")
        if value == 0.0:
            row_data = self.data.get(row)
            if row_data is not None:
                row_data.pop(col, None)
                if not row_data:
                    del self.data[row]
            return
        self.data.setdefault(row, {})[col] = value

    def get(self, row: int, col: int) -> float:
        return self.data.get(row, {}).get(col, 0.0)

    def entries(self) -> Iterator[Tuple[int, int, float]]:
        """Yield (row, col, value) in row-major order."""
        for row in sorted(self.data):
            cols = self.data[row]
            for col in sorted(cols):
                yield row, col, cols[col]

    # -- structure metrics ---------------------------------------------------------

    @property
    def nnz(self) -> int:
        return sum(len(cols) for cols in self.data.values())

    def flat_index(self, row: int, col: int) -> int:
        """Element index in the row-major dense layout."""
        return row * self.cols + col

    def nonzero_blocks(self, block_bytes: int = 64) -> int:
        """Number of *block_bytes*-sized blocks of the dense layout that
        contain at least one non-zero value.

        With ``block_bytes=64`` this is the non-zero cache-line count; with
        4096 it is the non-zero page count (the Figure 11 sweep).
        """
        return len(self._blocks(max(1, block_bytes // VALUE_BYTES)))

    def nonzero_lines(self) -> List[int]:
        """Sorted flat line indices of all non-zero 64B lines."""
        return sorted(self._blocks(VALUES_PER_LINE))

    def _blocks(self, values_per_block: int) -> Set[int]:
        """Indices of the blocks of *values_per_block* values of the dense
        layout that hold a non-zero: one pass over ``data``, unordered."""
        cols = self.cols
        return {(row * cols + col) // values_per_block
                for row, row_data in self.data.items() for col in row_data}

    @property
    def locality(self) -> float:
        """The paper's ``L``: average non-zeros per non-zero cache line."""
        lines = self.nonzero_blocks(64)
        return self.nnz / lines if lines else 0.0

    @property
    def density(self) -> float:
        total = self.rows * self.cols
        return self.nnz / total if total else 0.0

    # -- conversions (correctness references) ------------------------------------------

    def to_numpy(self) -> np.ndarray:
        dense = np.zeros((self.rows, self.cols))
        for row, col, value in self.entries():
            dense[row, col] = value
        return dense

    def to_scipy(self):  # simlint: disable=SL007 reference for tests
        """Return a scipy.sparse CSR matrix (reference implementation)."""
        from scipy.sparse import csr_matrix
        rows, cols, values = [], [], []
        for row, col, value in self.entries():
            rows.append(row)
            cols.append(col)
            values.append(value)
        return csr_matrix((values, (rows, cols)),
                          shape=(self.rows, self.cols))

    @classmethod
    def from_numpy(cls, dense: np.ndarray, name: str = "from_numpy") -> "MatrixPattern":
        pattern = cls(rows=dense.shape[0], cols=dense.shape[1], name=name)
        for row, col in zip(*np.nonzero(dense)):
            pattern.set(int(row), int(col), float(dense[row, col]))
        return pattern

    def __repr__(self) -> str:
        return (f"MatrixPattern({self.name!r}, {self.rows}x{self.cols}, "
                f"nnz={self.nnz}, L={self.locality:.2f})")
