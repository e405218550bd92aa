"""Section 4.5: hardware storage cost (OMT cache 4KB, TLB +8.5KB,
tags +82KB, total 94.5KB)."""

from repro.eval.hardware_cost import compute_hardware_cost


def test_hardware_cost_matches_paper(benchmark):
    cost = benchmark(compute_hardware_cost)
    assert cost.omt_cache_bytes == 4 * 1024
    assert cost.tlb_extension_bytes == int(8.5 * 1024)
    assert cost.cache_tag_extension_bytes == 82 * 1024
    assert abs(cost.total_bytes - 94.5 * 1024) < 1
