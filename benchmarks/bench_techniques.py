"""Micro-benchmarks for the five non-quantified Table 1 techniques
(`repro.eval.techniques_experiment`), so every row of the paper's
Table 1 has a regenerable measurement.

``python -m repro techniques`` prints a per-technique summary with the
baseline each one beats.
"""

from repro.core.address import PAGE_SIZE
from repro.eval.techniques_experiment import (BASE, BASE_VPN,
                                              checkpoint_epochs,
                                              dedup_vm_fleet, metadata_sweep,
                                              speculation_round,
                                              superpage_divergence)
from repro.techniques.superpage import PAGES_PER_SEGMENT


def test_dedup_halves_memory(benchmark):
    before, after, manager = benchmark.pedantic(dedup_vm_fleet, rounds=1,
                                                iterations=1)
    assert after < 0.45 * before
    assert manager.stats.pages_deduplicated > 0


def test_checkpoint_bandwidth_reduction(benchmark):
    manager = benchmark.pedantic(checkpoint_epochs, rounds=1, iterations=1)
    assert manager.bandwidth_reduction > 0.8
    # Recovery from the shipped deltas must match the live image.
    recovered = manager.restore_view(manager.epoch)
    live = {vpn: manager.kernel.system.page_bytes(manager.process.asid, vpn)
            for vpn in manager.process.mappings}
    assert recovered == live


def test_speculation_unbounded_and_abortable(benchmark):
    spilled, _, kernel, process = benchmark.pedantic(speculation_round,
                                                     rounds=1, iterations=1)
    assert spilled > 0  # speculation outlived the caches
    assert kernel.system.page_bytes(process.asid, BASE_VPN) == (
        b"sp" * (PAGE_SIZE // 2))  # rollback exact


def test_metadata_cost_is_line_granular(benchmark):
    manager = benchmark.pedantic(metadata_sweep, rounds=1, iterations=1)
    # 500 words = 4000B of data = 63 lines -> 63 shadow lines, far less
    # than the 8 full shadow pages a page-granularity scheme would burn.
    assert manager.shadow_bytes < 8 * PAGE_SIZE / 4
    assert manager.metadata_load(BASE) == 1


def test_superpage_segment_copies_beat_full_copy(benchmark):
    manager = benchmark.pedantic(superpage_divergence, rounds=1,
                                 iterations=1)
    assert manager.stats.pages_copied <= 6 * PAGES_PER_SEGMENT
    assert manager.stats.pages_copied < 512  # vs one full 2MB copy
