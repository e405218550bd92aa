"""Cycle accounting and host time: attribution rules, accumulation,
the cProfile fold, artifacts.

The contract under test (DESIGN.md "Observability"):

* attribution is pure Table 2 arithmetic over the stats tree — each
  scope's counters times the configured latencies, mirroring the scope
  hierarchy;
* :class:`ProfileAccumulator` folds every machine a harness builds into
  one merged tree via the engine's root hook;
* host seconds come from a ``cProfile`` run folded by ``repro`` module
  into layers (:func:`host_layers`);
* ``python -m repro --profile`` prints the experiment's output and its
  cycle tree exactly as an unprofiled run computes them;
* the ``*.profile.json`` artifact validates against
  :data:`repro.obs.PROFILE_SCHEMA`.
"""

import cProfile
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main as cli_main
from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.engine import tracing
from repro.obs import (PROFILE_SCHEMA, ProfileAccumulator, ProfileNode,
                       format_profile, host_layers, profile_document,
                       profile_stats, schema_errors, write_profile)
from repro.obs.__main__ import main as obs_cli

RESULTS = Path(__file__).resolve().parents[1] / "results"


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
            "read_miss_latency": 111, "writeback_latency": 22}))
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
        tracing.install_root_observer(accumulator)
        try:
            single = profile_stats(self._loaded_system().stats_scope)
            self._loaded_system()
        finally:
            tracing.uninstall_root_observer()
        merged = accumulator.finish()
        assert accumulator.systems == 2
        assert merged.total == pytest.approx(2 * single.total)
        assert accumulator.finish() is merged  # idempotent

    def test_empty_accumulator_finishes_to_none(self):
        assert ProfileAccumulator().finish() is None

    def test_root_hook_binds_machine_roots_only(self):
        from repro.engine.component import Component
        accumulator = ProfileAccumulator()
        tracing.install_root_observer(accumulator)
        try:
            Component("oms")                  # a transient sub-root
            Component("core", parent=Component("system"))
        finally:
            tracing.uninstall_root_observer()
        Component("system")                   # disarmed: not seen
        assert accumulator.systems == 1

    def test_root_observer_slot_is_exclusive(self):
        tracing.install_root_observer(ProfileAccumulator())
        try:
            with pytest.raises(tracing.TraceError):
                tracing.install_root_observer(ProfileAccumulator())
        finally:
            tracing.uninstall_root_observer()
        tracing.uninstall_root_observer()     # idempotent
        assert tracing.HOOKS.roots is None


class TestHostLayers:
    def test_profiled_benchmark_folds_into_layers(self):
        from repro.eval.fork_experiment import run_benchmark
        profiler = cProfile.Profile()
        profiler.runcall(run_benchmark, "bwaves", scale=0.25)
        host = host_layers(profiler)
        doc = profile_document("bwaves", None, host=host, systems=0)
        assert schema_errors(doc, PROFILE_SCHEMA) == []
        names = [layer["name"] for layer in host["layers"]]
        assert "mem.cache" in names and "cpu.core" in names
        assert names[-2:] == ["builtins", "other"]
        assert sum(layer["share"] for layer in host["layers"]) == \
            pytest.approx(1.0)
        assert sum(layer["seconds"] for layer in host["layers"]) == \
            pytest.approx(host["seconds"])
        cache = host["layers"][names.index("mem.cache")]
        assert cache["seconds"] > 0 and cache["calls"] > 0
        seconds = [layer["seconds"] for layer in host["layers"][:-2]]
        assert seconds == sorted(seconds, reverse=True)


#: The CLI's per-run bookkeeping lines, which vary from run to run.
_BOOKKEEPING = re.compile(r"^\[(wrote .*|\S+ done in [\d.]+s)\]\n", re.M)


class TestProfileFlag:
    def test_output_and_cycle_tree_match_an_unprofiled_run(self, tmp_path,
                                                           capsys):
        """Running under cProfile changes nothing simulated: the printed
        experiment is its committed text, and the printed cycle tree is
        the one a plain ProfileAccumulator run computes."""
        from repro.eval.remap_latency import measure_remap_latency
        assert cli_main(["--profile", "--results-dir", str(tmp_path),
                         "remap_latency"]) == 0
        out = _BOOKKEEPING.sub("", capsys.readouterr().out)
        committed = (RESULTS / "remap_latency.txt").read_text()
        assert out.startswith(committed)
        accumulator = ProfileAccumulator()
        tracing.install_root_observer(accumulator)
        try:
            measure_remap_latency()
        finally:
            tracing.uninstall_root_observer()
        tree = format_profile(accumulator.finish())
        assert out[len(committed):].startswith(tree + "\nhost seconds")
        doc = json.loads(
            (tmp_path / "remap_latency.profile.json").read_text())
        assert schema_errors(doc, PROFILE_SCHEMA) == []
        assert format_profile(doc["profile"]) == tree

    def test_the_profile_is_folded_after_the_profiled_run(self, tmp_path,
                                                          capsys):
        """The accumulator only keeps each machine's registry while the
        experiment runs, so none of the profiler's own folding shows in
        the host table."""
        assert cli_main(["--profile", "--results-dir", str(tmp_path),
                         "remap_latency"]) == 0
        capsys.readouterr()
        doc = json.loads(
            (tmp_path / "remap_latency.profile.json").read_text())
        assert doc["systems"] == 2
        assert "obs.profile" not in [
            layer["name"] for layer in doc["host"]["layers"]]

    def test_a_fresh_process_profiles_the_experiment_not_its_imports(
            self, tmp_path):
        """The harnesses are imported before profiling starts, so host
        time outside the package (the import machinery) stays small."""
        out = subprocess.run(
            [sys.executable, "-m", "repro", "--profile", "--results-dir",
             str(tmp_path), "remap_latency"], check=True, encoding="utf-8",
            env=dict(os.environ, PYTHONPATH=str(RESULTS.parent / "src")),
            capture_output=True).stdout
        assert _BOOKKEEPING.sub("", out).startswith(
            (RESULTS / "remap_latency.txt").read_text())
        doc = json.loads((tmp_path / "remap_latency.profile.json").read_text())
        assert doc["host"]["layers"][-1]["name"] == "other"
        assert doc["host"]["layers"][-1]["share"] < 0.25


class TestArtifact:
    def _profile(self):
        return profile_stats(_scope("system", {}, [
            _scope("dram", {"row_hits": 4, "busy_cycles": 200,
                            "reads": 4, "writes": 2})]))

    def test_document_validates_against_schema(self, tmp_path):
        profiler = cProfile.Profile()
        node = profiler.runcall(self._profile)
        path = write_profile("unit", node, host=host_layers(profiler),
                             results_dir=tmp_path)
        assert path.name == "unit.profile.json"
        doc = json.loads(path.read_text())
        assert schema_errors(doc, PROFILE_SCHEMA) == []
        assert obs_cli(["validate", str(path)]) == 0

    def test_none_profile_is_a_valid_document(self):
        doc = profile_document("unit", None, systems=0)
        assert schema_errors(doc, PROFILE_SCHEMA) == []

    def test_format_profile_shows_shares_and_host_layers(self):
        profiler = cProfile.Profile()
        node = profiler.runcall(self._profile)
        rendered = format_profile(node, host=host_layers(profiler))
        assert "cycle accounting" in rendered
        assert "dram" in rendered and "%" in rendered
        assert "host seconds by layer" in rendered
        assert rendered.splitlines()[-1].split()[0] == "other"

    def test_report_subcommand_routes_by_suffix(self, tmp_path, capsys):
        path = write_profile("unit", self._profile(), results_dir=tmp_path)
        assert obs_cli(["report", str(path)]) == 0
        assert "cycle accounting" in capsys.readouterr().out
