"""Figure 11: memory overhead of sparse storage vs management granularity.

For each matrix, the paper compares the memory needed to store it when
managed at block sizes from 16B to 4KB (each non-zero block stored in
full), normalised to the "Ideal" that stores only the non-zero values.
CSR is plotted alongside.  Headline: page-granularity (4KB) management
costs ~53x Ideal on average, while 64B-line management is close to CSR —
the case for fine-grained memory management, and the observation that
sub-64B blocks would beat CSR on even more matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..sparse.matrix_gen import locality_sweep
from ..sparse.pattern import MatrixPattern
from ..sparse.spmv import ideal_memory_bytes
from ..sparse.csr import CSRMatrix

#: The granularities of Figure 11.
BLOCK_SIZES = (16, 32, 64, 256, 1024, 4096)


@dataclass
class Figure11Point:
    """One matrix's overhead at each granularity, normalised to Ideal."""

    matrix: str
    locality: float
    csr_overhead: float
    block_overheads: Dict[int, float] = field(default_factory=dict)


def run_figure11(matrix_count: int = 16, rows: int = 1024, cols: int = 1024,
                 nnz: int = 4000, seed: int = 7,
                 matrices: Optional[List[MatrixPattern]] = None) -> List[Figure11Point]:
    """Compute the Figure 11 series (pure capacity analysis, no timing)."""
    if matrices is None:
        matrices = locality_sweep(matrix_count, rows=rows, cols=cols,
                                  nnz=nnz, seed=seed)
    points = []
    for pattern in sorted(matrices, key=lambda m: m.locality):
        ideal = ideal_memory_bytes(pattern)
        csr = CSRMatrix(pattern).memory_bytes()
        overheads = {}
        for block in BLOCK_SIZES:
            stored = pattern.nonzero_blocks(block) * block
            overheads[block] = stored / ideal
        points.append(Figure11Point(matrix=pattern.name,
                                    locality=pattern.locality,
                                    csr_overhead=csr / ideal,
                                    block_overheads=overheads))
    return points


def mean_overhead(points: List[Figure11Point], block: int) -> float:
    return sum(p.block_overheads[block] for p in points) / len(points)


def format_figure11(points: List[Figure11Point]) -> str:
    header = (f"{'matrix':<12} {'L':>5} {'CSR':>6} "
              + " ".join(f"{size:>6d}" for size in BLOCK_SIZES))
    lines = ["Figure 11: memory overhead over Ideal (stores only non-zero "
             "values) by management granularity", header]
    for p in points:
        row = (f"{p.matrix:<12} {p.locality:>5.2f} {p.csr_overhead:>6.2f} "
               + " ".join(f"{p.block_overheads[size]:>6.2f}"
                          for size in BLOCK_SIZES))
        lines.append(row)
    lines.append("mean overhead: "
                 + ", ".join(f"{size}B={mean_overhead(points, size):.1f}x"
                             for size in BLOCK_SIZES))
    beats_64 = sum(1 for p in points
                   if p.block_overheads[64] < p.csr_overhead)
    beats_16 = sum(1 for p in points
                   if p.block_overheads[16] < p.csr_overhead)
    lines.append(f"64B management beats CSR on {beats_64}/{len(points)} "
                 f"matrices; 16B on {beats_16}/{len(points)} (finer is better)")
    return "\n".join(lines)
