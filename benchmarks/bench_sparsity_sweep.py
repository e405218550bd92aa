"""Section 5.2's sparsity sweep: overlays vs the dense representation.

``pytest benchmarks/bench_sparsity_sweep.py --benchmark-only`` times a
short sweep and asserts the paper's claim (overlays win at every
sparsity level, gap grows with the zero-line fraction); ``python -m repro
sparsity_sweep`` prints the full series.
"""

from repro.eval.sparsity_sweep import run_sparsity_sweep


def test_sparsity_sweep_overlay_always_wins(benchmark):
    points = benchmark.pedantic(
        run_sparsity_sweep,
        kwargs={"fractions": [0.25, 0.75, 0.97]}, rounds=1, iterations=1)
    for point in points:
        assert point.speedup >= 1.0, (
            f"dense beat overlays at zero fraction "
            f"{point.zero_line_fraction}")
    # The gap grows with sparsity.
    assert points[-1].speedup > points[0].speedup
