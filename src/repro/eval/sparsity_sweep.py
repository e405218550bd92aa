"""Section 5.2's sparsity sweep: overlays vs the dense representation.

The paper: "our simulations using randomly-generated sparse matrices
with varying levels of sparsity (0% to 100%) show that our representation
outperforms the dense-matrix representation for all sparsity levels —
the performance gap increases linearly with the fraction of zero cache
lines in the matrix."

This harness sweeps the zero-line fraction on square matrices and
simulates one SpMV iteration of the overlay and dense representations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..engine.rng import resolve_seed
from ..sparse.matrix_gen import generate_with_locality
from ..sparse.pattern import MatrixPattern, VALUES_PER_LINE
from ..sparse.spmv import run_spmv


@dataclass
class SparsityPoint:
    zero_line_fraction: float
    dense_cycles: int
    overlay_cycles: int
    dense_memory: int
    overlay_memory: int

    @property
    def speedup(self) -> float:
        """Dense cycles / overlay cycles (>1: overlays win).

        A zero-cycle overlay run (degenerate sweep inputs) reports
        ``inf`` rather than raising — sweeps must survive every point.
        """
        if self.overlay_cycles == 0:
            return float("inf") if self.dense_cycles else 0.0
        return self.dense_cycles / self.overlay_cycles


def _matrix_with_zero_fraction(rows: int, cols: int, zero_fraction: float,
                               seed: int) -> MatrixPattern:
    total_lines = rows * cols // VALUES_PER_LINE
    nonzero_lines = max(1, round(total_lines * (1.0 - zero_fraction)))
    # Fully populated non-zero lines (L = 8): isolates the zero-line
    # skipping effect, which is what the sweep studies.
    return generate_with_locality(rows, cols,
                                  nnz=nonzero_lines * VALUES_PER_LINE,
                                  locality=float(VALUES_PER_LINE),
                                  seed=seed, run_length=1,
                                  name=f"zf{zero_fraction:.2f}")


def run_sparsity_sweep(rows: int = 128, cols: int = 128,
                       fractions: Optional[List[float]] = None,
                       seed: Optional[int] = None) -> List[SparsityPoint]:
    """Sweep the zero-line fraction from dense (0.0) to very sparse.

    Point *i* uses a matrix seeded ``seed + i`` (default base:
    ``SystemConfig.rng_seed + 5``, the sweep's historical stream), so
    repeated sweeps are byte-identical.
    """
    seed = resolve_seed(seed, stream=5)
    if fractions is None:
        fractions = [0.0, 0.25, 0.5, 0.75, 0.9, 0.97]
    points = []
    for index, fraction in enumerate(fractions):
        pattern = _matrix_with_zero_fraction(rows, cols, fraction,
                                             seed=seed + index)
        dense = run_spmv(pattern, "dense")
        overlay = run_spmv(pattern, "overlay")
        points.append(SparsityPoint(
            zero_line_fraction=fraction,
            dense_cycles=dense.cycles,
            overlay_cycles=overlay.cycles,
            dense_memory=dense.memory_bytes,
            overlay_memory=overlay.memory_bytes))
    return points


def format_sweep(points: List[SparsityPoint]) -> str:
    lines = ["Section 5.2 sparsity sweep: overlays vs dense representation",
             f"{'zero-line %':>11} {'dense cyc':>10} {'overlay cyc':>11} "
             f"{'speedup':>8} {'mem ratio':>9}"]
    for p in points:
        mem_ratio = (f"{p.overlay_memory / p.dense_memory:>9.2f}"
                     if p.dense_memory else f"{'n/a':>9}")
        lines.append(f"{p.zero_line_fraction:>10.0%} {p.dense_cycles:>10d} "
                     f"{p.overlay_cycles:>11d} {p.speedup:>8.2f} "
                     f"{mem_ratio}")
    monotone = all(points[i].speedup <= points[i + 1].speedup + 0.15
                   for i in range(len(points) - 1))
    lines.append("speedup grows with the zero-line fraction: "
                 + ("yes" if monotone else "no"))
    return "\n".join(lines)
