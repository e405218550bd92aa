"""Multiprogrammed interference (`repro.eval.multiprogrammed`): the
soplex fork study with a streaming co-runner on a second core.

``python -m repro multiprogrammed`` prints the full study.
"""

from repro.eval.multiprogrammed import corun


def test_overlay_advantage_survives_contention(benchmark):
    def run_pair():
        return corun("copy"), corun("overlay")
    cow_cpi, oow_cpi = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    assert oow_cpi < cow_cpi
