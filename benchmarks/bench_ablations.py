"""Design ablations called out in DESIGN.md (`repro.eval.ablations`).

``pytest benchmarks/bench_ablations.py --benchmark-only`` times a short
run of each ablation and asserts its direction; ``python -m repro
ablations`` prints all four tables.
"""

from repro.eval.ablations import (omt_cache_sweep, remap_mechanism_comparison,
                                  segment_ladder_comparison,
                                  tlb_fill_cost_comparison)


def test_ablation_omt_cache(benchmark):
    cycles = benchmark.pedantic(omt_cache_sweep, args=((0, 64),),
                                rounds=1, iterations=1)
    # No OMT cache -> every overlay miss walks the OMT -> slower.
    assert cycles[0] > cycles[64]


def test_ablation_segment_ladder(benchmark):
    ladder, only_4k = benchmark(segment_ladder_comparison)
    # The ladder saves a large fraction for sparse overlays.
    assert ladder < 0.5 * only_4k


def test_ablation_remap_mechanism(benchmark):
    results = benchmark.pedantic(remap_mechanism_comparison, args=(16,),
                                 rounds=1, iterations=1)
    assert results["coherence"] < results["shootdown"]


def test_ablation_tlb_fill_cost(benchmark):
    results = benchmark.pedantic(tlb_fill_cost_comparison,
                                 args=(256, 1000), rounds=1, iterations=1)
    overhead = results[True] / results[False] - 1.0
    # This workload is the worst case (every access misses the TLB and
    # no overlay benefit accrues); even so the cost must stay bounded.
    # Real workloads amortize it — the paper's claim is that overlay
    # benefits "more than offset this additional TLB fill latency".
    assert 0.0 <= overhead < 0.5
