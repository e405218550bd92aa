"""Figure 11: memory overhead vs management granularity (16B..4KB, CSR).

``pytest benchmarks/bench_figure11.py --benchmark-only`` times the
capacity analysis and asserts its shape; ``python -m repro
figure11`` regenerates the full series.
"""

from repro.eval.granularity_experiment import (BLOCK_SIZES, mean_overhead,
                                               run_figure11)


def test_figure11_shape(benchmark):
    points = benchmark.pedantic(run_figure11, kwargs={"matrix_count": 10},
                                rounds=1, iterations=1)
    # Coarser management is never cheaper, and 4KB pages are far costlier
    # than 64B lines (the paper's ~53x vs ~2-3x).
    for point in points:
        overheads = [point.block_overheads[size] for size in BLOCK_SIZES]
        assert all(a <= b + 1e-9 for a, b in zip(overheads, overheads[1:]))
    assert mean_overhead(points, 4096) > 5 * mean_overhead(points, 64)


def test_figure11_finer_beats_csr_more_often(benchmark):
    points = benchmark.pedantic(run_figure11, kwargs={"matrix_count": 10},
                                rounds=1, iterations=1)
    beats_16 = sum(1 for p in points
                   if p.block_overheads[16] < p.csr_overhead)
    beats_64 = sum(1 for p in points
                   if p.block_overheads[64] < p.csr_overhead)
    assert beats_16 >= beats_64
