"""Figure 10: SpMV with page overlays vs CSR across matrices sorted by L.

The paper runs one SpMV iteration over 87 UF Sparse Matrix Collection
matrices and plots, per matrix, the overlay representation's performance
and memory capacity normalised to CSR, with the x-axis sorted by the
non-zero value locality L.  Its headline points:

* at L ≈ 1 overlays consume ~4.8x CSR's memory and run ~1.7x slower;
* at L = 8 overlays save 34% memory and run ~1.9x faster;
* the crossover sits around L ≈ 4.5.

This harness sweeps synthetic matrices across L ∈ [1, 8] (standing in
for the UF collection — see DESIGN.md), simulates one SpMV iteration of
each representation on a fresh machine, and reports the same normalised
series.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import List, Optional

from ..sparse.matrix_gen import locality_sweep
from ..sparse.pattern import MatrixPattern
from ..sparse.spmv import run_spmv

#: Default matrix geometry: wide matrices so the x-vector gather exceeds
#: the cache hierarchy, as with the paper's >=1.5M-non-zero matrices.
DEFAULT_ROWS = 64
DEFAULT_COLS = 524288
DEFAULT_NNZ = 8000


@dataclass
class Figure10Point:
    """One matrix's normalised overlay-vs-CSR results."""

    matrix: str
    locality: float
    nnz: int
    relative_performance: float   # CSR cycles / overlay cycles (>1: overlay wins)
    relative_memory: float        # overlay bytes / CSR bytes (<1: overlay wins)
    csr_cycles: int
    overlay_cycles: int


def run_figure10(matrix_count: int = 16, rows: int = DEFAULT_ROWS,
                 cols: int = DEFAULT_COLS, nnz: int = DEFAULT_NNZ,
                 seed: int = 7,
                 matrices: Optional[List[MatrixPattern]] = None) -> List[Figure10Point]:
    """Run the Figure 10 sweep; points are ordered by increasing L."""
    if matrices is None:
        matrices = locality_sweep(matrix_count, rows=rows, cols=cols,
                                  nnz=nnz, seed=seed)
    points = []
    for locality, pattern in sorted(((m.locality, m) for m in matrices),
                                    key=itemgetter(0)):
        csr = run_spmv(pattern, "csr")
        overlay = run_spmv(pattern, "overlay")
        points.append(Figure10Point(
            matrix=pattern.name,
            locality=locality,
            nnz=pattern.nnz,
            relative_performance=csr.cycles / overlay.cycles,
            relative_memory=overlay.memory_bytes / csr.memory_bytes,
            csr_cycles=csr.cycles,
            overlay_cycles=overlay.cycles))
    return points


def crossover_locality(points: List[Figure10Point]) -> Optional[float]:
    """L of the first point (in increasing-L order) from which overlays
    win on performance and keep winning — the paper's L ≈ 4.5."""
    for i, point in enumerate(points):
        if all(p.relative_performance >= 1.0 for p in points[i:]):
            return point.locality
    return None


def format_figure10(points: List[Figure10Point]) -> str:
    lines = ["Figure 10: SpMV, page overlays normalised to CSR "
             "(performance >1 and memory <1 favour overlays)",
             f"{'matrix':<12} {'L':>5} {'nnz':>7} {'rel perf':>9} "
             f"{'rel memory':>11}"]
    for p in points:
        lines.append(f"{p.matrix:<12} {p.locality:>5.2f} {p.nnz:>7d} "
                     f"{p.relative_performance:>9.2f} {p.relative_memory:>11.2f}")
    cross = crossover_locality(points)
    lines.append(f"performance crossover at L ~ "
                 f"{cross:.2f}" if cross is not None else
                 "no stable performance crossover found")
    wins = [p for p in points if p.relative_performance > 1.0]
    lines.append(f"overlays outperform CSR on {len(wins)}/{len(points)} matrices")
    return "\n".join(lines)
