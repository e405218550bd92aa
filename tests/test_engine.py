"""Unit tests for the simulation engine (clock, stats, components) plus
the machine a :class:`SystemConfig` builds and the stats paths it
exports."""

from dataclasses import dataclass, replace

import pytest

from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.core.address import overlay_page_number
from repro.core.framework import OverlaySystem
from repro.cpu.core import Core
from repro.engine import (ClockError, Component, SimClock,
                          SimulationHangError, StatsError, StatsRegistry)
from repro.mem.hierarchy import MemoryHierarchy
from repro.robust.invariants import InvariantChecker


@dataclass
class _Block:
    hits: int = 0
    misses: int = 0
    rate: float = 0.0


class TestStatsRegistry:
    def test_duplicate_registration_rejected(self):
        scope = StatsRegistry("root")
        scope.register_block("x", _Block())
        with pytest.raises(StatsError):
            scope.register_block("x", _Block())
        with pytest.raises(StatsError):
            scope.child("x")
        with pytest.raises(StatsError):
            scope.adopt(StatsRegistry("x"))

    def test_own_block_is_singular_and_inlined(self):
        scope = StatsRegistry("l1")
        block = scope.own_block(_Block(hits=2, rate=0.5))
        assert scope.scalars() == {"hits": 2, "misses": 0, "rate": 0.5}
        with pytest.raises(StatsError):
            scope.own_block(_Block())
        assert block.hits == 2

    def test_snapshot_nests_children(self):
        root = StatsRegistry("system")
        root.own_block(_Block(hits=2))
        child = root.child("hierarchy")
        child.register_block("prefetcher", _Block(misses=7))
        assert root.to_dict() == {
            "name": "system",
            "scalars": {"hits": 2, "misses": 0, "rate": 0.0},
            "blocks": {},
            "children": [{
                "name": "hierarchy", "scalars": {},
                "blocks": {"prefetcher": {"hits": 0, "misses": 7,
                                          "rate": 0.0}},
                "children": []}]}

    def test_flat_uses_leaf_and_block_names(self):
        root = StatsRegistry("system")
        hier = root.child("hierarchy")
        hier.child("l1").own_block(_Block(hits=1))
        hier.register_block("prefetcher", _Block(misses=3))
        paths = root.flat_paths()
        assert paths["system.hierarchy.l1.hits"] == 1
        assert paths["system.hierarchy.prefetcher.misses"] == 3
        assert not any(path.startswith("system.hits") for path in paths)

    def test_flat_paths_keeps_duplicate_leaves_distinct(self):
        # Two subtrees that both end in a leaf scope named "queue".
        root = StatsRegistry("system")
        root.child("north").child("queue").own_block(_Block(hits=5))
        root.child("south").child("queue").own_block(_Block(hits=10))
        paths = root.flat_paths()
        assert paths["system.north.queue.hits"] == 5
        assert paths["system.south.queue.hits"] == 10
        assert "system.queue.hits" not in paths


class TestSimClock:
    def test_advance_is_monotonic(self):
        cursor = SimClock().cursor("core0")
        cursor.advance(10)
        cursor.advance_to(15)
        assert cursor.time == 15
        with pytest.raises(ClockError):
            cursor.advance_to(3)
        with pytest.raises(ClockError):
            cursor.advance(-1)

    def test_seek_repositions_but_peak_persists(self):
        clock = SimClock()
        clock.cursor("core0").advance(100)
        clock.seek(40)
        assert clock.now == 40
        assert clock.peak == 100
        with pytest.raises(ClockError):
            clock.seek(-1)

    def test_cursor_ordering_across_components(self):
        clock = SimClock()
        a = clock.cursor("core0")
        b = clock.cursor("core1")
        a.advance(50)
        b.advance(20)
        earliest = min((a, b), key=lambda cursor: cursor.time)
        assert earliest is b
        clock.seek(b.time)
        assert clock.now == 20
        clock.seek(a.time)
        assert clock.now == 50
        assert clock.peak == 50

    def test_cursor_is_monotonic_even_when_clock_seeks(self):
        clock = SimClock()
        cursor = clock.cursor("core0", start=30)
        clock.seek(0)
        with pytest.raises(ClockError):
            cursor.advance_to(10)
        assert cursor.time == 30

    def test_release_forgets_cursor(self):
        clock = SimClock(max_cycles=100)
        a = clock.cursor("core0")
        b = clock.cursor("core1")
        clock.release(a)
        clock.release(a)  # double release is safe
        with pytest.raises(SimulationHangError) as caught:
            b.advance(101)
        assert caught.value.snapshot["cursors"] == [("core1", 101)]


class TestComponentTree:
    def test_children_register_under_parent_scope(self):
        root = Component("system")
        child = Component("hierarchy", parent=root)
        leaf = Component("l1", parent=child)
        leaf.stats_scope.own_block(_Block(hits=2))
        assert root.stats_scope.flat_paths()["system.hierarchy.l1.hits"] == 2

    def test_attach_child_adopts_stats(self):
        root = Component("system")
        orphan = Component("dram")
        orphan.stats_scope.own_block(_Block(hits=1))
        assert root.attach_child(orphan) is orphan
        assert root.stats_scope.flat_paths()["system.dram.hits"] == 1
        with pytest.raises(ValueError):
            root.attach_child(Component("dram"))


class TestSystemBuilder:
    """Building the machine: every component reads one SystemConfig."""

    def test_cache_params_cover_every_config_field(self):
        config = SystemConfig(l1_bytes=32 * 1024, l1_ways=2,
                              l2_tag_latency=5, l3_policy="lru")
        hierarchy = MemoryHierarchy(config=config)
        for level, cache in zip(("l1", "l2", "l3"), hierarchy.caches()):
            assert cache.num_sets * cache.ways * cache.line_size == \
                getattr(config, f"{level}_bytes")
            assert cache.ways == getattr(config, f"{level}_ways")
            assert cache.tag_latency == getattr(config,
                                                f"{level}_tag_latency")
            assert cache.data_latency == getattr(config,
                                                 f"{level}_data_latency")
            assert cache.line_size == config.cache_line_bytes
            assert cache.serial_tag_data == (level == "l3")
        # l3_policy="lru": the L3 keeps LRU itself, with no policy object.
        assert hierarchy.l3._lru and hierarchy.l3._policy is None

    def test_built_hierarchy_matches_config(self):
        config = SystemConfig(l2_bytes=256 * 1024, l2_ways=4,
                              l3_bytes=1024 * 1024, write_buffer_entries=8,
                              prefetcher_degree=2)
        hierarchy = MemoryHierarchy(config=config)
        line = config.cache_line_bytes
        assert hierarchy.l2.num_sets == config.l2_bytes // (config.l2_ways
                                                            * line)
        assert hierarchy.l3.num_sets == config.l3_bytes // (config.l3_ways
                                                            * line)
        assert hierarchy.l1.tag_latency == config.l1_tag_latency
        assert hierarchy.l3.serial_tag_data
        assert hierarchy.dram.write_buffer_capacity == 8
        assert hierarchy.prefetcher.degree == 2

    def test_hierarchy_module_holds_no_inline_table2(self):
        # Every default must come from SystemConfig, so changing the
        # config changes the build.
        import inspect

        import repro.mem.hierarchy as hierarchy_module
        source = inspect.getsource(hierarchy_module)
        for token in ("64 * 1024", "512 * 1024", "2 * 1024 * 1024",
                      "65536", "524288", "2097152"):
            assert token not in source
        custom = SystemConfig(l1_bytes=8 * 1024)
        assert MemoryHierarchy(config=custom).l1.num_sets == \
            custom.l1_bytes // (custom.l1_ways * custom.cache_line_bytes)

    def test_build_system_threads_config_everywhere(self):
        config = SystemConfig(l3_bytes=1024 * 1024, omt_cache_entries=8,
                              instruction_window=32, l2_tlb_entries=512)
        system = OverlaySystem(num_cores=2, config=config)
        assert system.config is config
        assert system.hierarchy.l3.num_sets == config.l3_bytes // (
            config.l3_ways * config.cache_line_bytes)
        assert system.controller.omt_cache.capacity == 8
        assert len(system.tlbs) == 2
        assert all(tlb._l2._sets * tlb._l2._ways == 512 for tlb in system.tlbs)
        assert Core(system, asid=1).window == 32
        assert Core(system, asid=1, window=4).window == 4

    def test_default_config_is_table2(self):
        system = OverlaySystem()
        assert system.config is DEFAULT_CONFIG
        assert system.hierarchy.l1.num_sets * 4 * 64 == 64 * 1024
        assert system.tlbs[0].miss_latency == 1000
        assert Core(system, asid=1).window == 64

    def test_table2_timings_follow_the_config(self):
        config = replace(DEFAULT_CONFIG, tlb_shootdown_latency=5000,
                         overlay_read_exclusive_latency=150,
                         table_walk_access_cycles=200,
                         cpu_cycles_per_tck=6)
        system = OverlaySystem(config=config)
        assert system.coherence.shootdown(1, 0x10) == 5000
        opn = overlay_page_number(1, 0x10)
        assert system.coherence.overlaying_read_exclusive(opn, 0) == 150
        # A cold OMT-cache miss walks the table: the same number of
        # accesses as on a Table 2 machine, at 200 cycles each.
        _entry, table2 = OverlaySystem().controller.omt_entry(opn,
                                                               create=True)
        _entry, latency = system.controller.omt_entry(opn, create=True)
        accesses = table2 // DEFAULT_CONFIG.table_walk_access_cycles
        assert accesses > 0 and latency == accesses * 200
        # A row miss on a closed bank: tRCD + burst + tCAS at 6 CPU
        # cycles per tCK (7 + 4 + 7 tCK), plus the controller.
        assert system.dram.t_cas == 7 * 6
        assert system.dram.read(0) == (7 + 4 + 7) * 6 + 10


def _machine_stats_keys(system):
    return set(system.stats_scope.flat_paths())


class TestSystemStatsWiring:
    def test_registry_is_persistent(self):
        system = OverlaySystem()
        system.map_page(1, vpn=0x10, ppn=0x99)
        keys = _machine_stats_keys(system)
        system.write(1, 0x10000, b"hello")
        paths = system.stats_scope.flat_paths()
        assert paths["system.framework.writes"] == 1
        assert paths["system.hierarchy.l1.fills"] > 0
        assert _machine_stats_keys(system) == keys

    def test_stats_tree_mentions_components(self):
        """Every component and block of a two-core machine exports
        under its path; this pins the tree every consumer (profiler,
        comparison tooling, the perf benchmark) reads."""
        system = OverlaySystem(num_cores=2)
        InvariantChecker(system)
        system.map_page(1, vpn=0x10, ppn=0x99)
        system.write(1, 0x10000, b"hello")
        system.read(1, 0x10000, 5)
        scopes = {path.rsplit(".", 1)[0]
                  for path in system.stats_scope.flat_paths()}
        assert scopes == {
            "system.dram", "system.controller", "system.controller.oms",
            "system.controller.omt_cache", "system.hierarchy",
            "system.hierarchy.l1", "system.hierarchy.l2",
            "system.hierarchy.l3", "system.hierarchy.prefetcher",
            "system.tlb0", "system.tlb1", "system.coherence",
            "system.framework", "system.invariants"}
        paths = system.stats_scope.flat_paths()
        # Every path benchmarks/perf/perf_trace.py's SimProbe reads.
        for path in (
                "tlb0.misses", "tlb0.l1_hits", "tlb0.l2_hits",
                "hierarchy.l1.hits", "hierarchy.l1.misses",
                "hierarchy.l2.hits", "hierarchy.l2.misses",
                "hierarchy.l3.hits", "hierarchy.l3.misses",
                "hierarchy.l3.prefetch_hits", "hierarchy.prefetcher.issued",
                "dram.row_hits", "dram.row_misses", "dram.reads",
                "dram.writes", "controller.omt_cache.cache_hits",
                "controller.omt_cache.cache_misses",
                "controller.oms.segments_allocated",
                "coherence.overlaying_read_exclusive_messages",
                "coherence.commit_broadcasts", "coherence.shootdowns",
                "framework.cow_triggers"):
            assert f"system.{path}" in paths, path
        assert paths["system.framework.writes"] == 1
        assert paths["system.framework.reads"] == 1
        assert [path.rsplit(".", 1)[1] for path in paths
                if path.rsplit(".", 1)[0] == "system.hierarchy"] == [
            "resolve_miss_requests", "resolve_miss_latency",
            "fetch_data_requests", "writeback_requests",
            "writeback_latency"]
