"""Figure 10: SpMV of page overlays vs CSR across matrices sorted by L.

``pytest benchmarks/bench_figure10.py --benchmark-only`` times the two
representations at the L extremes and asserts the crossover shape;
``python -m repro figure10`` regenerates the full series.
"""

from repro.sparse.matrix_gen import generate_with_locality
from repro.sparse.spmv import run_spmv

ROWS, COLS, NNZ = 64, 524288, 8000


def _spmv_pair(locality):
    matrix = generate_with_locality(ROWS, COLS, NNZ, locality, seed=3)
    csr = run_spmv(matrix, "csr")
    overlay = run_spmv(matrix, "overlay")
    return csr, overlay


def test_figure10_low_locality(benchmark):
    """At L ~ 1 CSR wins on performance and memory (paper's poisson3Db)."""
    csr, overlay = benchmark.pedantic(_spmv_pair, args=(1.1,),
                                      rounds=1, iterations=1)
    assert overlay.cycles > csr.cycles
    assert overlay.memory_bytes > 3 * csr.memory_bytes


def test_figure10_high_locality(benchmark):
    """At L = 8 overlays win both metrics (paper's raefsky4)."""
    csr, overlay = benchmark.pedantic(_spmv_pair, args=(8.0,),
                                      rounds=1, iterations=1)
    assert overlay.cycles < csr.cycles
    assert overlay.memory_bytes < csr.memory_bytes
