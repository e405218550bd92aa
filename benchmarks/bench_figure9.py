"""Figure 9: performance (CPI) after a fork, CoW vs OoW (lower is better).

``pytest benchmarks/bench_figure9.py --benchmark-only`` times one
benchmark per type and asserts the performance shape; ``python -m repro
figure9`` regenerates the full series.
"""

import pytest

from repro.eval.fork_experiment import run_benchmark

REPRESENTATIVES = ["sphinx3", "soplex", "omnet"]  # one per type


@pytest.mark.parametrize("name", REPRESENTATIVES)
def test_figure9_cpi(benchmark, name):
    result = benchmark.pedantic(run_benchmark, args=(name,),
                                kwargs={"scale": 0.5}, rounds=1, iterations=1)
    if result.type_id == 1:
        # Type 1: little difference between the mechanisms.
        assert abs(result.performance_improvement) < 0.25
    else:
        # Types 2 and 3: overlay-on-write is faster.
        assert result.oow.cpi < result.cow.cpi
