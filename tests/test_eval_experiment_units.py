"""Unit tests for experiment-harness helpers not covered elsewhere."""

import pytest

from repro.eval.fork_experiment import BenchmarkComparison, PolicyRun
from repro.eval.spmv_experiment import Figure10Point, crossover_locality


def run(policy, memory, cpi):
    return PolicyRun(benchmark="b", type_id=2, policy=policy,
                     additional_memory_bytes=memory, cpi=cpi,
                     instructions=1000, cycles=int(cpi * 1000))


class TestPolicyRun:
    def test_memory_mb(self):
        assert run("copy-on-write", 2 * 1024 * 1024, 1.0
                   ).additional_memory_mb == 2.0


class TestComparison:
    def make(self, cow_mem=100, oow_mem=25, cow_cpi=10.0, oow_cpi=8.0):
        return BenchmarkComparison(
            benchmark="b", type_id=2,
            cow=run("copy-on-write", cow_mem, cow_cpi),
            oow=run("overlay-on-write", oow_mem, oow_cpi))

    def test_memory_reduction(self):
        assert self.make().memory_reduction == pytest.approx(0.75)

    def test_memory_reduction_zero_baseline(self):
        assert self.make(cow_mem=0).memory_reduction == 0.0

    def test_performance_improvement(self):
        assert self.make().performance_improvement == pytest.approx(0.2)


def point(locality, perf):
    return Figure10Point(matrix="m", locality=locality, nnz=1,
                         relative_performance=perf, relative_memory=1.0,
                         csr_cycles=1, overlay_cycles=1)


class TestCrossover:
    def test_simple_crossover(self):
        points = [point(1, 0.5), point(4, 1.2), point(8, 2.0)]
        assert crossover_locality(points) == 4

    def test_dip_after_crossing_moves_it_later(self):
        points = [point(1, 0.5), point(3, 1.1), point(5, 0.9),
                  point(8, 2.0)]
        assert crossover_locality(points) == 8

    def test_always_winning(self):
        points = [point(1, 1.5), point(8, 2.0)]
        assert crossover_locality(points) == 1

    def test_never_winning(self):
        points = [point(1, 0.5), point(8, 0.9)]
        assert crossover_locality(points) is None


class TestSpeedupGuards:
    """Zero-cycle denominators must not crash a sweep (regression)."""

    def test_sparsity_point_zero_overlay_cycles(self):
        from repro.eval.sparsity_sweep import SparsityPoint
        point = SparsityPoint(zero_line_fraction=1.0, dense_cycles=100,
                              overlay_cycles=0, dense_memory=0,
                              overlay_memory=0)
        assert point.speedup == float("inf")
        degenerate = SparsityPoint(zero_line_fraction=1.0, dense_cycles=0,
                                   overlay_cycles=0, dense_memory=0,
                                   overlay_memory=0)
        assert degenerate.speedup == 0.0

    def test_format_sweep_zero_dense_memory(self):
        from repro.eval.sparsity_sweep import SparsityPoint, format_sweep
        text = format_sweep([SparsityPoint(
            zero_line_fraction=0.5, dense_cycles=10, overlay_cycles=5,
            dense_memory=0, overlay_memory=64)])
        assert "n/a" in text

    def test_remap_latency_zero_overlay_cycles(self):
        from repro.eval.remap_latency import RemapLatency
        assert RemapLatency(copy_on_write_cycles=100,
                            overlay_on_write_cycles=0).speedup == float("inf")
        assert RemapLatency(copy_on_write_cycles=0,
                            overlay_on_write_cycles=0).speedup == 0.0
