"""Unit tests for the simulation engine (clock, stats, builder)
plus the regression that engine-built and hand-wired systems are
behaviourally identical."""

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.core.framework import OverlaySystem
from repro.engine import (ClockError, Component, SimClock, StatsError,
                          StatsRegistry, SystemBuilder)
from repro.mem.hierarchy import MemoryHierarchy


@dataclass
class _Block:
    hits: int = 0
    misses: int = 0
    rate: float = 0.0


class TestStatsRegistry:
    def test_counter_and_gauge_roundtrip(self):
        scope = StatsRegistry("root")
        counter = scope.counter("events")
        gauge = scope.gauge("occupancy", 3)
        counter.increment()
        counter.increment(4)
        gauge.adjust(-2)
        assert scope.scalars() == {"events": 5, "occupancy": 1}

    def test_counter_cannot_decrease(self):
        counter = StatsRegistry().counter("events")
        with pytest.raises(ValueError):
            counter.increment(-1)

    def test_duplicate_registration_rejected(self):
        scope = StatsRegistry("root")
        scope.counter("x")
        with pytest.raises(StatsError):
            scope.counter("x")
        with pytest.raises(StatsError):
            scope.gauge("x")
        with pytest.raises(StatsError):
            scope.child("x")
        with pytest.raises(StatsError):
            scope.register_block("x", _Block())

    def test_own_block_is_singular_and_inlined(self):
        scope = StatsRegistry("l1")
        block = scope.own_block(_Block(hits=2, rate=0.5))
        assert scope.scalars() == {"hits": 2, "misses": 0, "rate": 0.5}
        with pytest.raises(StatsError):
            scope.own_block(_Block())
        assert block.hits == 2

    def test_snapshot_nests_children(self):
        root = StatsRegistry("system")
        root.counter("faults").increment(2)
        child = root.child("hierarchy")
        child.register_block("prefetcher", _Block(misses=7))
        snap = root.snapshot()
        assert snap == {"faults": 2,
                        "hierarchy": {"prefetcher": {"hits": 0, "misses": 7,
                                                     "rate": 0.0}}}

    def test_flat_uses_leaf_and_block_names(self):
        root = StatsRegistry("system")
        hier = root.child("hierarchy")
        hier.child("l1").own_block(_Block(hits=1))
        hier.register_block("prefetcher", _Block(misses=3))
        flat = root.flat()
        assert flat["l1"]["hits"] == 1
        assert flat["prefetcher"]["misses"] == 3
        assert "system" not in flat  # no scalars of its own

    def test_reset_zeroes_everything(self):
        root = StatsRegistry("system")
        root.counter("n").increment(9)
        root.child("l1").own_block(_Block(hits=4, rate=1.0))
        root.reset()
        assert root.flat() == {"system": {"n": 0},
                               "l1": {"hits": 0, "misses": 0, "rate": 0.0}}

    def test_merge_sums_and_rejects_mismatches(self):
        def build(hits):
            root = StatsRegistry("system")
            root.counter("n").increment(hits)
            root.child("l1").own_block(_Block(hits=hits))
            return root

        a, b = build(2), build(5)
        a.merge(b)
        assert a.flat()["l1"]["hits"] == 7
        assert a.flat()["system"]["n"] == 7
        stranger = StatsRegistry("system")
        stranger.counter("other").increment(1)
        with pytest.raises(StatsError):
            a.merge(stranger)

    def test_format_tree_is_indented(self):
        root = StatsRegistry("system")
        root.child("hierarchy").child("l1").own_block(_Block(hits=3))
        dump = root.format_tree()
        assert "system" in dump and "  hierarchy" in dump
        assert "    l1" in dump and "hits = 3" in dump

    @staticmethod
    def _deep_tree():
        # Two subtrees that both end in a leaf scope named "queue" — the
        # duplicate-leaf-name case the legacy flat() view collapses and
        # flat_paths() must keep distinct.
        root = StatsRegistry("system")
        north = root.child("north")
        north.counter("events").increment(1)
        north.child("queue").gauge("depth", 2).adjust(3)
        south_queue = root.child("south").child("queue")
        south_queue.gauge("depth", 2).adjust(8)
        south_queue.counter("stalls").increment(4)
        return root

    def test_flat_merges_duplicate_leaf_scope_names(self):
        flat = self._deep_tree().flat()
        # Both "queue" scopes collapse into one entry; the last-walked
        # scope's value wins for colliding fields, and fields unique to
        # either scope survive.
        assert set(flat["queue"]) == {"depth", "stalls"}
        assert flat["queue"]["depth"] == 10
        assert flat["queue"]["stalls"] == 4
        assert flat["north"] == {"events": 1}

    def test_flat_paths_keeps_duplicate_leaves_distinct(self):
        paths = self._deep_tree().flat_paths()
        assert paths["system.north.queue.depth"] == 5
        assert paths["system.south.queue.depth"] == 10
        assert paths["system.south.queue.stalls"] == 4
        assert "system.queue.depth" not in paths

    def test_deep_reset_zeroes_counters_and_restores_gauges(self):
        root = self._deep_tree()
        root.reset()
        paths = root.flat_paths()
        # Counters zero; gauges return to their initial level (2), not 0.
        assert paths["system.north.events"] == 0
        assert paths["system.south.queue.stalls"] == 0
        assert paths["system.north.queue.depth"] == 2
        assert paths["system.south.queue.depth"] == 2
        # A gauge moved after reset reports the new level.
        root.children()[0]._children["queue"]._gauges["depth"].adjust(7)
        assert root.flat_paths()["system.north.queue.depth"] == 9


class TestSimClock:
    def test_advance_is_monotonic(self):
        clock = SimClock()
        clock.advance(10)
        clock.advance_to(15)
        assert clock.now == 15
        with pytest.raises(ClockError):
            clock.advance_to(3)
        with pytest.raises(ClockError):
            clock.advance(-1)

    def test_seek_repositions_but_peak_persists(self):
        clock = SimClock()
        clock.advance(100)
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
        assert clock.earliest() is b
        clock.focus(b)
        assert clock.now == 20
        clock.focus(a)
        assert clock.now == 50
        assert clock.peak == 50

    def test_cursor_is_monotonic_even_when_clock_seeks(self):
        clock = SimClock()
        cursor = clock.cursor("core0", start=30)
        clock.seek(0)
        with pytest.raises(ClockError):
            cursor.advance_to(10)
        cursor.catch_up_to(10)  # no-op, already ahead
        assert cursor.time == 30

    def test_release_forgets_cursor(self):
        clock = SimClock()
        a = clock.cursor("core0")
        b = clock.cursor("core1")
        b.advance(5)
        clock.release(a)
        assert clock.earliest() is b
        clock.release(a)  # double release is safe


class TestComponentTree:
    def test_children_share_clock_and_stats(self):
        root = Component("system")
        child = Component("hierarchy", parent=root)
        leaf = Component("l1", parent=child)
        assert leaf.sim_clock is root.sim_clock
        leaf.stats_scope.counter("hits").increment(2)
        assert root.stats_scope.flat()["l1"]["hits"] == 2
        assert root.find_component("hierarchy/l1") is leaf
        assert [c.component_name for c in root.walk_components()] == [
            "system", "hierarchy", "l1"]

    def test_attach_child_adopts_stats(self):
        root = Component("system")
        orphan = Component("dram")
        orphan.stats_scope.counter("reads").increment(1)
        root.attach_child(orphan)
        assert orphan.parent is root
        assert orphan.sim_clock is root.sim_clock
        assert root.stats_scope.flat()["dram"]["reads"] == 1
        with pytest.raises(ValueError):
            root.attach_child(Component("dram"))


class TestSystemBuilder:
    def test_cache_params_cover_every_config_field(self):
        config = SystemConfig(l1_bytes=32 * 1024, l1_ways=2,
                              l2_tag_latency=5, l3_policy="lru")
        builder = SystemBuilder(config)
        for level in ("l1", "l2", "l3"):
            params = builder.cache_params(level)
            assert params["size_bytes"] == getattr(config, f"{level}_bytes")
            assert params["ways"] == getattr(config, f"{level}_ways")
            assert params["tag_latency"] == getattr(config,
                                                    f"{level}_tag_latency")
            assert params["data_latency"] == getattr(config,
                                                     f"{level}_data_latency")
            assert params["policy"] == getattr(config, f"{level}_policy")
            assert params["line_size"] == config.cache_line_bytes
            assert params["serial_tag_data"] == (level == "l3")
        with pytest.raises(ValueError):
            builder.cache_params("l4")

    def test_built_hierarchy_matches_config(self):
        config = SystemConfig(l2_bytes=256 * 1024, l2_ways=4,
                              l3_bytes=1024 * 1024)
        hierarchy = SystemBuilder(config).build_hierarchy()
        line = config.cache_line_bytes
        assert hierarchy.l2.num_sets == config.l2_bytes // (config.l2_ways
                                                            * line)
        assert hierarchy.l3.num_sets == config.l3_bytes // (config.l3_ways
                                                            * line)
        assert hierarchy.l1.tag_latency == config.l1_tag_latency
        assert hierarchy.l3.serial_tag_data
        assert hierarchy.dram.write_buffer_capacity == \
            config.write_buffer_entries
        assert hierarchy.prefetcher.degree == config.prefetcher_degree

    def test_hierarchy_module_holds_no_inline_table2(self):
        # The inline l?_params dicts are gone: every default must come
        # from SystemConfig, so changing the config changes the build.
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
                              instruction_window=32)
        builder = SystemBuilder(config)
        system = builder.build_system(num_cores=2)
        assert system.config is config
        assert system.hierarchy.l3.num_sets == config.l3_bytes // (
            config.l3_ways * config.cache_line_bytes)
        assert system.controller.omt_cache.capacity == 8
        assert len(system.tlbs) == 2
        core = builder.build_core(system, asid=1)
        assert core.window == 32
        scheduler = builder.build_scheduler(system)
        assert scheduler.system is system

    def test_default_config_is_table2(self):
        builder = SystemBuilder()
        assert builder.config is DEFAULT_CONFIG
        assert builder.cache_params("l1")["size_bytes"] == 64 * 1024
        assert builder.tlb_params()["miss_latency"] == 1000


def _machine_stats_keys(system):
    return set(system.stats_snapshot())


class TestSystemStatsWiring:
    def test_registry_is_persistent_and_resettable(self):
        system = OverlaySystem()
        system.map_page(1, vpn=0x10, ppn=0x99)
        system.write(1, 0x10000, b"hello")
        before = system.stats_snapshot()
        assert before["framework"]["writes"] == 1
        assert before["l1"]["fills"] > 0
        system.reset_stats()
        after = system.stats_snapshot()
        assert after["framework"]["writes"] == 0
        assert after["l1"]["fills"] == 0
        assert _machine_stats_keys(system) == set(before)

    def test_stats_tree_mentions_components(self):
        dump = OverlaySystem(num_cores=2).stats_tree()
        for name in ("system", "hierarchy", "l1", "l2", "l3", "dram",
                     "controller", "oms", "coherence", "tlb0", "tlb1"):
            assert name in dump


ACCESS_STREAM = st.lists(
    st.tuples(st.integers(min_value=0, max_value=48),  # line tag
              st.booleans()),                          # write?
    min_size=1, max_size=80)


class TestEngineLegacyEquivalence:
    @given(stream=ACCESS_STREAM)
    @settings(max_examples=40, deadline=None)
    def test_builder_hierarchy_matches_hand_wired(self, stream):
        """SystemBuilder-built and explicitly hand-wired hierarchies
        must report identical latencies, and serve each access from
        the same level."""
        config = DEFAULT_CONFIG
        built = SystemBuilder(config).build_hierarchy(
            l1_kwargs=dict(size_bytes=4 * 64 * 2, ways=2),
            l2_kwargs=dict(size_bytes=8 * 64 * 4, ways=4),
            l3_kwargs=dict(size_bytes=16 * 64 * 8, ways=8))
        wired = MemoryHierarchy(
            l1_kwargs=dict(size_bytes=4 * 64 * 2, ways=2,
                           tag_latency=config.l1_tag_latency,
                           data_latency=config.l1_data_latency,
                           policy=config.l1_policy),
            l2_kwargs=dict(size_bytes=8 * 64 * 4, ways=4,
                           tag_latency=config.l2_tag_latency,
                           data_latency=config.l2_data_latency,
                           policy=config.l2_policy),
            l3_kwargs=dict(size_bytes=16 * 64 * 8, ways=8,
                           tag_latency=config.l3_tag_latency,
                           data_latency=config.l3_data_latency,
                           policy=config.l3_policy))

        def levels(hierarchy):
            return [(cache.stats.hits, cache.stats.misses)
                    for cache in hierarchy.caches()]

        for tag, write in stream:
            assert (built.access(tag, write=write)
                    == wired.access(tag, write=write))
            assert levels(built) == levels(wired)

    @given(ops=st.lists(
        st.tuples(st.integers(min_value=0, max_value=0x1ff0),  # offset
                  st.booleans()),
        min_size=1, max_size=40))
    @settings(max_examples=25, deadline=None)
    def test_builder_system_matches_direct_construction(self, ops):
        """A builder-built OverlaySystem and a directly constructed one
        must report identical latencies for the same access stream."""
        systems = [SystemBuilder().build_system(), OverlaySystem()]
        for system in systems:
            system.map_page(1, vpn=0x40, ppn=0x123)
            system.map_page(1, vpn=0x41, ppn=0x124)
        base = 0x40 << 12
        outcomes = []
        for system in systems:
            trail = []
            for offset, write in ops:
                if write:
                    trail.append(system.write(1, base + offset, b"\x5A" * 8))
                else:
                    data, latency = system.read(1, base + offset)
                    trail.append((data, latency))
            trail.append(system.stats_snapshot())
            outcomes.append(trail)
        assert outcomes[0] == outcomes[1]
