"""The observability layer: manifests, tracing, stats export, schemas.

The contract under test (DESIGN.md "Observability"):

* manifests round-trip and split deterministic from environment fields;
* the tracer is a bounded ring buffer whose exports are valid JSONL and
  valid Chrome trace format;
* ``StatsRegistry.to_dict`` carries exactly the scalars the ASCII
  ``format_tree`` view prints;
* a disabled tracer costs the hot path zero simulated cycles and zero
  allocations in the tracing/obs modules.
"""

import json
import tracemalloc

import pytest

from repro.config import SystemConfig
from repro.core.address import PAGE_SIZE
from repro.engine import tracing
from repro.engine.stats import StatsRegistry
from repro.engine.tracing import TraceError
from repro.obs import (DEFAULT_CAPACITY, RunManifest, SchemaError, Tracer,
                       emit_run, run_document, stats_to_dict,
                       tracing_session, validate_manifest, validate_run)
from repro.obs.__main__ import main as obs_cli
from repro.osmodel.kernel import Kernel
from repro.techniques.overlay_on_write import OverlayOnWritePolicy

BASE_VPN = 0x100


def _small_fork_run():
    """A tiny overlay-on-write run exercising every hook category."""
    kernel = Kernel()
    parent = kernel.create_process()
    kernel.mmap(parent, BASE_VPN, 4, fill=b"ob")
    kernel.install_cow_policy(OverlayOnWritePolicy(kernel))
    kernel.fork(parent)
    total = 0
    for page in range(4):
        total += kernel.system.write(parent.asid,
                                     (BASE_VPN + page) * PAGE_SIZE, b"y" * 8)
    # Evict the dirty overlay lines so the Overlay Memory Store path
    # (segment allocation) runs too.
    kernel.system.hierarchy.flush_dirty()
    return kernel, total


class TestRunManifest:
    def test_round_trip(self):
        manifest = RunManifest.create("unit", seed=7)
        manifest.finish()
        clone = RunManifest.from_dict(manifest.to_dict())
        assert clone.to_dict() == manifest.to_dict()

    def test_deterministic_dict_is_stable_across_creates(self):
        first = RunManifest.create("unit").deterministic_dict()
        second = RunManifest.create("unit").deterministic_dict()
        assert first == second
        for key in ("python", "platform", "started_at", "duration_seconds"):
            assert key not in first

    def test_seed_and_config_resolution(self):
        config = SystemConfig(rng_seed=123)
        manifest = RunManifest.create("unit", config=config)
        assert manifest.rng_seed == 123
        assert manifest.config["rng_seed"] == 123
        assert RunManifest.create("unit", seed=9).rng_seed == 9

    def test_finish_records_duration(self):
        manifest = RunManifest.create("unit")
        assert manifest.duration_seconds is None
        manifest.finish()
        assert manifest.duration_seconds >= 0.0

    def test_validates_against_schema(self):
        validate_manifest(RunManifest.create("unit").to_dict())
        with pytest.raises(SchemaError):
            validate_manifest({"run": "broken"})


class TestTracerRingBuffer:
    def test_capacity_bounds_retention_and_counts_drops(self):
        tracer = Tracer(capacity=4)
        for i in range(10):
            tracer.emit(i, "unit", f"event{i}")
        assert len(tracer) == 4
        assert tracer.dropped == 6
        assert tracer.total_emitted == 10
        assert [event.name for event in tracer] == [
            "event6", "event7", "event8", "event9"]

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_time_backfill_from_last_clock_observation(self):
        tracer = Tracer()
        tracer.emit(42, "clock", "advance")
        tracer.emit(None, "port", "miss")
        assert tracer.events()[1].time == 42

    def test_install_conflicts_and_idempotent_uninstall(self):
        with tracing_session() as first:
            assert tracing.active() is first
            with pytest.raises(TraceError):
                tracing.install(Tracer())
        assert tracing.active() is None
        tracing.uninstall()  # second uninstall is a no-op
        assert tracing.active() is None


class TestTraceExports:
    def _traced_run(self):
        with tracing_session() as tracer:
            _small_fork_run()
        return tracer

    def test_hooks_capture_engine_and_core_events(self):
        tracer = self._traced_run()
        categories = {event.category for event in tracer}
        assert "port" in categories
        assert "tlb" in categories
        assert "coherence" in categories
        assert "oms" in categories

    def test_jsonl_is_one_valid_object_per_line(self):
        tracer = self._traced_run()
        lines = tracer.to_jsonl().splitlines()
        assert len(lines) == len(tracer)
        seqs = [json.loads(line)["seq"] for line in lines]
        assert seqs == sorted(seqs)

    def test_chrome_trace_is_valid_and_typed(self):
        tracer = self._traced_run()
        doc = json.loads(json.dumps(tracer.chrome_trace()))
        events = doc["traceEvents"]
        assert len(events) == len(tracer)
        assert all(event["ph"] in ("X", "i") for event in events)
        # Latency-carrying events become complete slices with a duration.
        assert any(event["ph"] == "X" and event["dur"] > 0
                   for event in events)

    def test_trace_files_written_and_cli_validates(self, tmp_path):
        tracer = self._traced_run()
        jsonl = tracer.write_jsonl(tmp_path / "run.jsonl")
        assert jsonl.read_text().count("\n") == len(tracer)
        chrome = tracer.write_chrome_trace(tmp_path / "run.trace.json")
        assert obs_cli(["validate", str(chrome)]) == 0


class TestStatsExport:
    def test_to_dict_matches_format_tree_scalars(self):
        kernel, _ = _small_fork_run()
        scope = kernel.system.stats_scope

        def collect(node):
            yield node["name"], node["scalars"]
            for child in node["children"]:
                yield from collect(child)

        exported = dict(collect(scope.to_dict()))
        tree = scope.format_tree()
        for name, scalars in exported.items():
            assert name in tree
            for stat_name, value in scalars.items():
                assert scope.flat() != {}  # tree is populated
                assert f"{stat_name}" in tree
        # Every scalar the registry reports appears in the export.
        assert exported[scope.name] == scope.scalars()

    def test_stats_to_dict_accepts_registry_component_and_none(self):
        registry = StatsRegistry("unit")
        registry.counter("hits").increment(3)
        assert stats_to_dict(registry)["scalars"] == {"hits": 3}
        kernel, _ = _small_fork_run()
        assert stats_to_dict(kernel.system)["name"] == \
            kernel.system.stats_scope.name
        assert stats_to_dict(None) is None
        with pytest.raises(TypeError):
            stats_to_dict(42)

    def test_stats_to_dict_passes_plain_dicts_through(self):
        exported = {"name": "system", "scalars": {"hits": 3},
                    "blocks": {}, "children": []}
        assert stats_to_dict(exported) is exported

        class Holder:
            stats_scope = exported

        assert stats_to_dict(Holder()) is exported

    def test_stats_to_dict_errors_name_the_offending_attribute(self):
        class Broken:
            stats_scope = 42

        with pytest.raises(TypeError, match="stats_scope.*int"):
            stats_to_dict(Broken())
        with pytest.raises(TypeError, match="no 'stats_scope'"):
            stats_to_dict(object())


class TestEmitRun:
    def test_emit_run_writes_valid_document(self, tmp_path):
        kernel, total = _small_fork_run()
        path = emit_run("unit", {"total_latency": total},
                        stats=kernel.system, results_dir=tmp_path)
        assert path == tmp_path / "unit.json"
        doc = json.loads(path.read_text())
        validate_run(doc)
        assert doc["data"]["total_latency"] == total
        assert doc["manifest"]["run"] == "unit"
        assert doc["stats"]["name"]

    def test_emit_run_writes_trace_sibling(self, tmp_path):
        with tracing_session() as tracer:
            _small_fork_run()
        emit_run("unit", {}, tracer=tracer, results_dir=tmp_path)
        trace_doc = json.loads((tmp_path / "unit.trace.json").read_text())
        assert len(trace_doc["traceEvents"]) == len(tracer)

    def test_run_document_shape(self):
        manifest = RunManifest.create("unit")
        doc = run_document(manifest, {"x": 1})
        assert set(doc) == {"manifest", "data", "stats"}
        assert doc["stats"] is None


class TestTraceDropsSurfaced:
    def test_overflowed_ring_recorded_in_run_document(self, tmp_path,
                                                      capsys):
        with tracing_session(capacity=8) as tracer:
            _small_fork_run()
        assert tracer.dropped > 0
        path = emit_run("tiny", {}, tracer=tracer, results_dir=tmp_path)
        doc = json.loads(path.read_text())
        validate_run(doc)
        assert doc["trace"] == {"dropped": tracer.dropped, "capacity": 8}
        warning = capsys.readouterr().out
        assert "ring buffer overflowed" in warning
        assert str(tracer.dropped) in warning

    def test_unoverflowed_ring_leaves_document_unchanged(self, tmp_path,
                                                         capsys):
        with tracing_session() as tracer:
            _small_fork_run()
        assert tracer.dropped == 0
        path = emit_run("roomy", {}, tracer=tracer, results_dir=tmp_path)
        doc = json.loads(path.read_text())
        assert "trace" not in doc
        assert "overflowed" not in capsys.readouterr().out

    def test_untraced_document_carries_no_trace_key(self):
        doc = run_document(RunManifest.create("unit"), {})
        assert "trace" not in doc


class TestZeroOverheadWhenOff:
    def test_simulated_time_identical_with_and_without_tracing(self):
        _, untraced = _small_fork_run()
        with tracing_session() as tracer:
            _, traced = _small_fork_run()
        assert traced == untraced
        assert len(tracer) > 0

    def test_disabled_hooks_allocate_nothing(self):
        _small_fork_run()  # warm imports and code paths
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            _small_fork_run()
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        observed = [
            tracemalloc.Filter(True, "*/engine/tracing.py"),
            tracemalloc.Filter(True, "*/obs/*.py"),
        ]
        growth = [stat for stat
                  in after.filter_traces(observed).compare_to(
                      before.filter_traces(observed), "lineno")
                  if stat.size_diff > 0]
        assert not growth, (
            f"disabled tracing hooks allocated: {growth}")

    def test_disabled_sampler_clock_hook_allocates_nothing(self):
        # The sampler hook site runs on *every* observed time movement;
        # with no sampler installed it must be one attribute load plus
        # an `is None` test.  Cycle values are kept inside CPython's
        # cached small-int range so the loop itself allocates nothing
        # attributable to clock.py.
        from repro.engine.clock import SimClock
        assert tracing.active_sampler() is None
        clock = SimClock()
        for _ in range(100):  # warm the advance/observe path
            clock.advance(1)
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            for _ in range(100):
                clock.advance(1)
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        observed = [tracemalloc.Filter(True, "*/engine/clock.py")]
        growth = [stat for stat
                  in after.filter_traces(observed).compare_to(
                      before.filter_traces(observed), "lineno")
                  if stat.size_diff > 0]
        assert not growth, (
            f"disabled sampler hook site allocated: {growth}")


class TestDefaultCapacity:
    def test_session_default_is_bounded(self):
        with tracing_session() as tracer:
            assert tracer.capacity == DEFAULT_CAPACITY
