"""Smoke tests for every experiment harness (small scales)."""

import pytest

from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.eval.fork_experiment import (format_figure8, format_figure9,
                                        run_benchmark, run_suite, summarize)
from repro.eval.granularity_experiment import (BLOCK_SIZES, format_figure11,
                                               mean_overhead, run_figure11)
from repro.eval.hardware_cost import (compute_hardware_cost,
                                      format_hardware_cost)
from repro.eval.remap_latency import (format_remap_latency,
                                      measure_remap_latency)
from repro.eval.sparsity_sweep import format_sweep, run_sparsity_sweep
from repro.eval.spmv_experiment import (crossover_locality, format_figure10,
                                        run_figure10)
from repro.sparse.matrix_gen import locality_sweep

pytestmark = pytest.mark.slow


class TestConfig:
    def test_table2_values(self):
        config = DEFAULT_CONFIG
        assert config.frequency_ghz == 2.67
        assert config.instruction_window == 64
        assert config.l1_bytes == 64 * 1024
        assert config.l3_policy == "drrip"
        assert config.omt_cache_entries == 64
        assert config.dram_type == "DDR3-1066"

    def test_format_table_mentions_every_block(self):
        text = DEFAULT_CONFIG.format_table()
        for block in ("Processor", "TLB", "L1 Cache", "L2 Cache",
                      "Prefetcher", "L3 Cache", "DRAM Controller",
                      "DRAM and Bus"):
            assert block in text

    def test_config_is_overridable(self):
        config = SystemConfig(omt_cache_entries=128)
        assert config.omt_cache_entries == 128


class TestForkExperiment:
    def test_single_benchmark_runs(self):
        result = run_benchmark("libq", scale=0.5, warmup_accesses=500)
        assert result.cow.cycles > 0 and result.oow.cycles > 0
        assert result.cow.policy == "copy-on-write"
        assert result.oow.policy == "overlay-on-write"

    def test_type3_shape(self):
        result = run_benchmark("omnet", scale=0.3, warmup_accesses=500)
        assert result.memory_reduction > 0.5
        assert result.oow.cpi < result.cow.cpi

    def test_suite_and_formatting(self):
        results = run_suite(benchmarks=["libq", "soplex"], scale=0.3,
                            warmup_accesses=300)
        stats = summarize(results)
        assert set(stats) == {"memory_reduction", "performance_improvement"}
        fig8 = format_figure8(results)
        fig9 = format_figure9(results)
        assert "libq" in fig8 and "soplex" in fig9
        assert "mean" in fig8

    def test_unknown_policy_rejected(self):
        from repro.eval.fork_experiment import run_policy
        from repro.workloads.spec_like import BENCHMARKS
        with pytest.raises(ValueError):
            run_policy(BENCHMARKS["libq"], "hopeful")

    @pytest.mark.parametrize("name", ["bzip2", "cactus", "lbm", "leslie3d",
                                      "soplex"])
    def test_type2_overlay_memory_is_oms_growth(self, name, monkeypatch):
        # Figure 8, Type 2: overlay-on-write's extra memory is the live
        # OMS segments plus what the 256B→4KB growth ladder leaves on the
        # free lists, less the initial pool granted before the fork.
        from repro.core.address import PAGE_SIZE
        from repro.eval import fork_experiment
        from repro.osmodel.kernel import Kernel
        from repro.workloads.spec_like import BENCHMARKS

        kernels = []

        class RecordingKernel(Kernel):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                kernels.append(self)

        monkeypatch.setattr(fork_experiment, "Kernel", RecordingKernel)
        run = fork_experiment.run_policy(BENCHMARKS[name], "overlay-on-write")
        oms = kernels[0].system.oms
        free_bytes = sum(size * len(bases) for size, bases
                         in oms.free_list_snapshot().items())
        initial_pool_bytes = 16 * PAGE_SIZE  # Kernel's oms_initial_pages
        assert run.additional_memory_bytes == (
            oms.allocated_bytes + free_bytes - initial_pool_bytes)


class TestSpMVExperiment:
    @pytest.fixture(scope="class")
    def points(self):
        matrices = locality_sweep(4, rows=32, cols=65536, nnz=1500, seed=3)
        return run_figure10(matrices=matrices)

    def test_points_sorted_by_locality(self, points):
        localities = [p.locality for p in points]
        assert localities == sorted(localities)

    def test_memory_ratio_falls_with_locality(self, points):
        assert points[0].relative_memory > points[-1].relative_memory
        assert points[0].relative_memory > 3.0   # paper: 4.83x at L~1
        assert points[-1].relative_memory < 1.0  # paper: 0.66x at L=8

    def test_performance_rises_with_locality(self, points):
        assert (points[-1].relative_performance
                > points[0].relative_performance)

    def test_formatting(self, points):
        text = format_figure10(points)
        assert "rel perf" in text and "crossover" in text


class TestGranularityExperiment:
    def test_overheads_monotone_in_block_size(self):
        points = run_figure11(matrix_count=6)
        for point in points:
            series = [point.block_overheads[b] for b in BLOCK_SIZES]
            assert all(a <= b + 1e-9 for a, b in zip(series, series[1:]))

    def test_page_granularity_is_very_expensive(self):
        points = run_figure11(matrix_count=6)
        assert mean_overhead(points, 4096) > 10  # paper: ~53x

    def test_formatting(self):
        text = format_figure11(run_figure11(matrix_count=4))
        assert "CSR" in text and "mean overhead" in text


class TestSparsitySweep:
    def test_overlay_beats_dense_and_gap_grows(self):
        points = run_sparsity_sweep(rows=64, cols=64,
                                    fractions=[0.25, 0.9])
        assert all(p.speedup >= 1.0 for p in points)
        assert points[-1].speedup > points[0].speedup
        assert points[-1].overlay_memory < points[-1].dense_memory

    def test_formatting(self):
        points = run_sparsity_sweep(rows=64, cols=64, fractions=[0.5])
        assert "sparsity sweep" in format_sweep(points)


class TestHardwareCost:
    def test_paper_numbers(self):
        cost = compute_hardware_cost()
        assert cost.total_bytes == pytest.approx(94.5 * 1024)

    def test_scaling_with_omt_cache(self):
        small = compute_hardware_cost(SystemConfig(omt_cache_entries=32))
        assert small.omt_cache_bytes == 2 * 1024

    def test_formatting(self):
        assert "94.5" in format_hardware_cost(compute_hardware_cost())


class TestRemapLatency:
    def test_overlay_is_much_faster(self):
        result = measure_remap_latency()
        assert result.speedup > 2.0
        assert "faster" in format_remap_latency(result)
