"""Sections 2.2 / 4.3.3: critical-path latency of the first write to a
copy-on-write page (page copy + shootdown vs line move + coherence)."""

from repro.eval.remap_latency import measure_remap_latency


def test_remap_latency_overlay_wins(benchmark):
    result = benchmark(measure_remap_latency)
    assert result.overlay_on_write_cycles < result.copy_on_write_cycles
    # The paper's qualitative claim: removing the copy and the shootdown
    # from the critical path is a multi-x latency win.
    assert result.speedup > 2.0
