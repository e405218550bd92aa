"""Cycle accounting: attribution rules, accumulation, artifacts.

The contract under test (DESIGN.md "Observability"):

* attribution is pure Table 2 arithmetic over the stats tree — each
  scope's counters times the configured latencies, mirroring the scope
  hierarchy, computable from a live registry or an exported document;
* :class:`ProfileAccumulator` folds every machine a harness builds into
  one merged tree via the engine's root hook;
* wall-clock readings exist only in :class:`WallClockProfiler` (the
  host-side section timer) and the exported ``wall`` half is excluded
  from run comparison;
* the ``*.profile.json`` artifact validates against
  :data:`repro.obs.PROFILE_SCHEMA`.
"""

import json

import pytest

from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.engine import tracing
from repro.obs import (PROFILE_SCHEMA, ProfileAccumulator, ProfileNode,
                       WallClockProfiler, format_profile, profile_document,
                       profile_run_document, profile_stats, schema_errors,
                       write_profile)
from repro.obs.__main__ import main as obs_cli
from repro.obs.profile import config_from_manifest


def _scope(name, scalars, children=()):
    return {"name": name, "scalars": scalars, "blocks": {},
            "children": list(children)}


class TestAttributionRules:
    def test_dram_splits_row_hit_and_miss_service(self):
        # Table 2 defaults: tCK = 5 CPU cycles, tCAS = 35, tBURST = 20.
        node = profile_stats(_scope("dram", {
            "row_hits": 2, "busy_cycles": 100, "reads": 3, "writes": 1}))
        assert node.breakdown["row-hit service"] == 2 * 20 + 2 * 35
        assert node.breakdown["row-miss service"] == (100 - 40) + 2 * 35

    def test_tlb_costs_lookups_fills_and_shootdowns(self):
        node = profile_stats(_scope("tlb0", {
            "l1_hits": 10, "l2_hits": 2, "misses": 1, "shootdowns": 1}))
        assert node.breakdown == {
            "L1 lookups": 10 * DEFAULT_CONFIG.l1_tlb_latency,
            "L2 lookups": 2 * DEFAULT_CONFIG.l2_tlb_latency,
            "fills (page table + OMT)": DEFAULT_CONFIG.tlb_miss_latency,
            "shootdowns": DEFAULT_CONFIG.tlb_shootdown_latency,
        }

    def test_omt_block_profiles_as_pseudo_child(self):
        scope = _scope("controller", {})
        scope["blocks"] = {"omt_cache": {"walk_memory_accesses": 3}}
        node = profile_stats(scope)
        child = node.child("omt_cache")
        assert child.breakdown["OMT walks"] == \
            3 * DEFAULT_CONFIG.table_walk_access_cycles

    def test_hierarchy_uses_measured_latency_sums_directly(self):
        node = profile_stats(_scope("hierarchy", {
            "resolve_miss_latency": 111, "writeback_latency": 22}))
        assert node.own == 111 + 22

    def test_core_scales_issue_by_width(self):
        config = SystemConfig(issue_width=4)
        node = profile_stats(_scope("core0", {
            "instructions": 400, "window_stall_cycles": 7}), config)
        assert node.breakdown["issue (compute)"] == 100
        assert node.breakdown["window stalls"] == 7

    def test_unmatched_scopes_and_zero_counters_attribute_nothing(self):
        node = profile_stats(_scope("mystery", {"events": 9}))
        assert node.breakdown == {}
        assert profile_stats(_scope("dram", {"row_hits": 0})).breakdown == {}

    def test_rejects_unprofilable_input(self):
        with pytest.raises(TypeError):
            profile_stats(42)


class TestProfileNode:
    def test_totals_sum_over_subtree(self):
        root = ProfileNode("root", {"a": 10}, [
            ProfileNode("left", {"b": 5}),
            ProfileNode("right", {}, [ProfileNode("leaf", {"c": 1})]),
        ])
        assert root.own == 10
        assert root.total == 16

    def test_merge_sums_by_name_and_adopts_new_scopes(self):
        ours = ProfileNode("root", {"a": 1}, [ProfileNode("x", {"b": 2})])
        theirs = ProfileNode("root", {"a": 9}, [
            ProfileNode("x", {"b": 1}), ProfileNode("y", {"c": 4})])
        ours.merge(theirs)
        assert ours.breakdown == {"a": 10}
        assert ours.child("x").breakdown == {"b": 3}
        assert ours.child("y").breakdown == {"c": 4}

    def test_dict_round_trip(self):
        root = ProfileNode("root", {"a": 2.5},
                           [ProfileNode("x", {"b": 1})])
        clone = ProfileNode.from_dict(root.to_dict())
        assert clone.to_dict() == root.to_dict()


class TestRealMachine:
    def _loaded_system(self):
        from repro.core.address import PAGE_SIZE
        from repro.osmodel.kernel import Kernel
        from repro.techniques.overlay_on_write import OverlayOnWritePolicy
        kernel = Kernel()
        parent = kernel.create_process()
        kernel.mmap(parent, 0x100, 4, fill=b"pf")
        kernel.install_cow_policy(OverlayOnWritePolicy(kernel))
        kernel.fork(parent)
        for page in range(4):
            kernel.system.write(parent.asid, (0x100 + page) * PAGE_SIZE,
                                b"y" * 8)
        kernel.system.hierarchy.flush_dirty()
        return kernel.system

    def test_profile_mirrors_stats_scopes_and_attributes_cycles(self):
        system = self._loaded_system()
        node = profile_stats(system.stats_scope)
        assert node.name == "system"
        assert node.total > 0
        scope_names = {node.name for _, node in system.stats_scope.walk()}
        profiled = set()

        def collect(profile_node):
            profiled.add(profile_node.name)
            for child in profile_node.children:
                collect(child)

        collect(node)
        # Every profiled scope except pseudo-children from blocks is a
        # real stats scope.
        blocks = {"omt_cache", "prefetcher", "framework"}
        assert profiled - blocks <= scope_names

    def test_accumulator_folds_one_profile_per_machine(self):
        accumulator = ProfileAccumulator()
        tracing.install_sampler(accumulator)
        try:
            single = profile_stats(self._loaded_system().stats_scope)
            self._loaded_system()
        finally:
            tracing.uninstall_sampler()
        merged = accumulator.finish()
        assert accumulator.systems == 2
        assert merged.total == pytest.approx(2 * single.total)
        assert accumulator.finish() is merged  # idempotent

    def test_empty_accumulator_finishes_to_none(self):
        assert ProfileAccumulator().finish() is None


class TestRunDocuments:
    def test_profiles_documents_with_embedded_stats(self):
        doc = {"manifest": {"config": {"cpu_cycles_per_tck": 5,
                                       "not_a_config_field": 1}},
               "stats": _scope("dram", {"row_hits": 1, "busy_cycles": 20,
                                        "reads": 1, "writes": 0})}
        node = profile_run_document(doc)
        assert node.breakdown["row-hit service"] == 20 + 35

    def test_document_without_stats_is_an_error(self):
        with pytest.raises(ValueError):
            profile_run_document({"manifest": {}, "data": {}, "stats": None})

    def test_config_from_manifest_ignores_unknown_keys(self):
        config = config_from_manifest({"config": {"issue_width": 8,
                                                  "mystery": True}})
        assert config.issue_width == 8
        assert config_from_manifest({}) is DEFAULT_CONFIG


class TestWallClock:
    def test_sections_accumulate_seconds_and_calls(self):
        wall = WallClockProfiler()
        for _ in range(3):
            with wall.section("unit"):
                pass
        doc = wall.to_dict()
        assert doc["sections"][0]["name"] == "unit"
        assert doc["sections"][0]["calls"] == 3
        assert doc["sections"][0]["seconds"] >= 0

    def test_section_records_even_when_body_raises(self):
        wall = WallClockProfiler()
        with pytest.raises(RuntimeError):
            with wall.section("crash"):
                raise RuntimeError("boom")
        assert wall.calls["crash"] == 1


class TestArtifact:
    def _profile(self):
        return profile_stats(_scope("system", {}, [
            _scope("dram", {"row_hits": 4, "busy_cycles": 200,
                            "reads": 4, "writes": 2})]))

    def test_document_validates_against_schema(self, tmp_path):
        wall = WallClockProfiler()
        with wall.section("simulate"):
            node = self._profile()
        path = write_profile("unit", node, wall=wall, results_dir=tmp_path)
        assert path.name == "unit.profile.json"
        doc = json.loads(path.read_text())
        assert schema_errors(doc, PROFILE_SCHEMA) == []
        assert obs_cli(["validate", str(path)]) == 0

    def test_none_profile_is_a_valid_document(self):
        doc = profile_document("unit", None, systems=0)
        assert schema_errors(doc, PROFILE_SCHEMA) == []

    def test_format_profile_shows_shares_and_wall_sections(self):
        wall = WallClockProfiler()
        with wall.section("simulate"):
            node = self._profile()
        rendered = format_profile(node, wall=wall.to_dict())
        assert "cycle accounting" in rendered
        assert "dram" in rendered and "%" in rendered
        assert "host wall clock" in rendered and "simulate" in rendered

    def test_report_subcommand_routes_by_suffix(self, tmp_path, capsys):
        path = write_profile("unit", self._profile(), results_dir=tmp_path)
        assert obs_cli(["report", str(path)]) == 0
        assert "cycle accounting" in capsys.readouterr().out
