"""Figure 8: additional memory consumed after a fork, CoW vs OoW.

``pytest benchmarks/bench_figure8.py --benchmark-only`` times one
benchmark per write-working-set type and asserts the figure's shape;
``python -m repro figure8`` regenerates the full 15-benchmark
series the paper plots.
"""

import pytest

from repro.eval.fork_experiment import run_benchmark

REPRESENTATIVES = ["hmmer", "lbm", "mcf"]  # one per type


@pytest.mark.parametrize("name", REPRESENTATIVES)
def test_figure8_memory(benchmark, name):
    result = benchmark.pedantic(run_benchmark, args=(name,),
                                kwargs={"scale": 0.5}, rounds=1, iterations=1)
    if result.type_id == 1:
        # Type 1: negligible extra memory under either mechanism.
        assert result.oow.additional_memory_mb <= 0.05
    elif result.type_id == 2:
        # Type 2: both mechanisms converge to similar extra memory.
        ratio = (result.oow.additional_memory_bytes
                 / max(1, result.cow.additional_memory_bytes))
        assert 0.6 <= ratio <= 1.4
    else:
        # Type 3: overlays save the bulk of the memory.
        assert result.memory_reduction > 0.5
