"""Tests that SystemConfig actually parameterises the built machine."""

import pytest

from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.core.framework import OverlaySystem
from repro.osmodel.kernel import Kernel


class TestWiring:
    def test_default_machine_matches_table2(self):
        system = OverlaySystem()
        assert system.hierarchy.l1.num_sets * 4 * 64 == 64 * 1024
        assert system.hierarchy.l2.num_sets * 8 * 64 == 512 * 1024
        assert system.hierarchy.l3.num_sets * 16 * 64 == 2 * 1024 * 1024
        assert system.hierarchy.l3.serial_tag_data
        assert system.controller.omt_cache.capacity == 64
        assert system.tlbs[0].miss_latency == 1000
        assert system.dram.write_buffer_capacity == 64
        assert system.hierarchy.prefetcher.degree == 4
        assert system.hierarchy.prefetcher.distance == 24

    def test_cache_sizes_configurable(self):
        config = SystemConfig(l1_bytes=32 * 1024, l3_bytes=1024 * 1024)
        system = OverlaySystem(config=config)
        assert system.hierarchy.l1.num_sets * 4 * 64 == 32 * 1024
        assert system.hierarchy.l3.num_sets * 16 * 64 == 1024 * 1024

    def test_tlb_configurable(self):
        config = SystemConfig(l1_tlb_entries=16, tlb_miss_latency=500)
        system = OverlaySystem(config=config)
        entry, latency = system.tlbs[0].lookup(1, 0x10)
        assert entry is None and latency == 500

    def test_kernel_passes_config(self):
        kernel = Kernel(config=SystemConfig(l2_bytes=256 * 1024))
        assert kernel.system.hierarchy.l2.num_sets * 8 * 64 == 256 * 1024

    def test_smaller_l3_hurts_performance(self):
        """A sanity ablation: shrinking the L3 4x must not help."""
        from repro.cpu.core import Core
        from repro.cpu.trace import Trace

        def run(l3_bytes):
            kernel = Kernel(config=SystemConfig(l3_bytes=l3_bytes))
            process = kernel.create_process()
            kernel.mmap(process, 0x100, 48, fill=b"cw")
            core = Core(kernel.system, process.asid)
            trace = Trace.random_in_region(0x100 * 4096, 48 * 4096, 3000,
                                           seed=4)
            core.run(trace)       # warm
            return core.run(trace).cycles

        assert run(512 * 1024) >= run(2 * 1024 * 1024)

    def test_config_is_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_CONFIG.l1_bytes = 1


class TestStatsSnapshot:
    def test_snapshot_covers_all_components(self):
        system = OverlaySystem(num_cores=2)
        system.map_page(1, 0x10, 0x42)
        system.write(1, 0x10 * 4096, b"snap")
        paths = system.stats_scope.flat_paths()
        for scope in ("framework", "dram", "controller.oms",
                      "controller.omt_cache", "controller", "coherence",
                      "hierarchy.prefetcher", "hierarchy.l1", "hierarchy.l2",
                      "hierarchy.l3", "tlb0", "tlb1"):
            assert any(path.startswith(f"system.{scope}.")
                       for path in paths), scope
        assert paths["system.framework.writes"] == 1
        assert paths["system.hierarchy.l1.fills"] >= 1

    def test_snapshot_values_are_numeric(self):
        system = OverlaySystem()
        for value in system.stats_scope.flat_paths().values():
            assert isinstance(value, (int, float))
