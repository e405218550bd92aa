"""The observability layer: manifests, tracing, stats export, schemas.

The contract under test (DESIGN.md "Observability"):

* manifests round-trip and split deterministic from environment fields;
* the tracer is a bounded ring buffer whose exports are valid JSONL and
  valid Chrome trace format;
* ``StatsRegistry.to_dict`` carries exactly the values, in the same
  order, as the ``flat_paths`` view;
* a disabled tracer costs the hot path zero simulated cycles and zero
  allocations in the tracing/obs modules;
* every document the producers build carries exactly the keys its
  schema declares, and the profiler reads only stats its components
  register.
"""

import cProfile
import json
import tracemalloc
from collections import Counter
from dataclasses import fields
from fnmatch import fnmatchcase

import pytest

from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.core.address import PAGE_SIZE
from repro.cpu.core import CoreStats
from repro.engine import tracing
from repro.engine.tracing import HOOKS, TraceError
from repro.obs import (DEFAULT_CAPACITY, RunManifest, SchemaError, Tracer,
                       emit_run, host_layers, profile_document,
                       profile_stats, run_document, tracing_session,
                       validate_manifest, validate_run)
from repro.obs import schema
from repro.obs.__main__ import main as obs_cli
from repro.obs.profile import SCOPE_RULES
from repro.osmodel.kernel import Kernel
from repro.robust import campaign
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


class CountingFaultHook(tracing.FaultHook):
    """Counts every fault-site opportunity and injects nothing."""

    def __init__(self):
        self.calls = Counter()

    def on_omt_walk(self, entry):
        self.calls["on_omt_walk"] += 1

    def on_obitvector_copy(self, vector):
        self.calls["on_obitvector_copy"] += 1

    def on_tlb_fill(self, entry):
        self.calls["on_tlb_fill"] += 1

    def on_dram_read(self, address):
        self.calls["on_dram_read"] += 1
        return 0


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
        assert [event.name for event in tracer] == [
            "event6", "event7", "event8", "event9"]

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_time_backfill_from_last_clock_observation(self):
        tracer = Tracer()
        tracer.emit(42, "clock", "advance")
        tracer.emit(None, "hierarchy", "read_miss")
        assert list(tracer)[1].time == 42

    def test_install_conflicts_and_idempotent_uninstall(self):
        with tracing_session() as first:
            assert HOOKS.active is first
            with pytest.raises(TraceError):
                tracing.install(Tracer())
        assert HOOKS.active is None
        tracing.uninstall()  # second uninstall is a no-op
        assert HOOKS.active is None


class TestTraceExports:
    def _traced_run(self):
        with tracing_session() as tracer:
            _small_fork_run()
        return tracer

    def test_hooks_capture_engine_and_core_events(self):
        """Every module owning architectural state publishes: the TLB,
        coherence, OMS and hierarchy through trace events, and the OMT,
        OBitVector, DRAM and TLB fill through the fault-hook sites."""
        sites = CountingFaultHook()
        tracing.install_faults(sites)
        try:
            tracer = self._traced_run()
        finally:
            tracing.uninstall_faults()
        categories = {event.category for event in tracer}
        assert {"tlb", "coherence", "oms", "hierarchy"} <= categories
        for site in ("on_omt_walk", "on_obitvector_copy", "on_dram_read",
                     "on_tlb_fill"):
            assert sites.calls[site] > 0, site

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
        assert len(tracer.to_jsonl().splitlines()) == len(tracer)
        chrome = tracer.write_chrome_trace(tmp_path / "run.trace.json")
        assert obs_cli(["validate", str(chrome)]) == 0


class TestStatsExport:
    def test_to_dict_matches_flat_paths(self):
        kernel, _ = _small_fork_run()
        scope = kernel.system.stats_scope

        def collect(node, prefix):
            path = f"{prefix}.{node['name']}" if prefix else node["name"]
            for name, value in node["scalars"].items():
                yield f"{path}.{name}", value
            for block, fields in node["blocks"].items():
                for name, value in fields.items():
                    yield f"{path}.{block}.{name}", value
            for child in node["children"]:
                yield from collect(child, path)

        exported = list(collect(scope.to_dict(), ""))
        assert exported
        # The two views hold the same values, in the same order.
        assert exported == list(scope.flat_paths().items())


class TestEmitRun:
    def test_emit_run_writes_valid_document(self, tmp_path):
        kernel, total = _small_fork_run()
        path = emit_run("unit", {"total_latency": total},
                        results_dir=tmp_path)
        assert path == tmp_path / "unit.json"
        doc = json.loads(path.read_text())
        validate_run(doc)
        assert doc["data"]["total_latency"] == total
        assert doc["manifest"]["run"] == "unit"
        assert doc["stats"] is None

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

    def test_disabled_clock_hooks_allocate_nothing(self):
        # The tracer sites in ClockCursor.advance/advance_to and
        # SimClock.seek run on *every* time movement; with no tracer
        # installed each must be one attribute load plus an `is None`
        # test.  Cycle values are kept inside CPython's cached small-int
        # range so the loop itself allocates nothing attributable to
        # clock.py.
        from repro.engine.clock import SimClock
        assert tracing.HOOKS.active is None and tracing.HOOKS.roots is None
        clock = SimClock()
        cursor = clock.cursor("core0")
        for _ in range(100):  # warm the advance/seek paths
            cursor.advance(1)
            clock.seek(cursor.time)
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            for _ in range(100):
                cursor.advance(1)
                clock.seek(cursor.time)
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        observed = [tracemalloc.Filter(True, "*/engine/clock.py")]
        growth = [stat for stat
                  in after.filter_traces(observed).compare_to(
                      before.filter_traces(observed), "lineno")
                  if stat.size_diff > 0]
        assert not growth, (
            f"disabled clock hook sites allocated: {growth}")


class TestDefaultCapacity:
    def test_session_default_is_bounded(self):
        with tracing_session() as tracer:
            assert tracer.capacity == DEFAULT_CAPACITY


def _manifest_document(tmp_path):
    manifest = RunManifest.create("unit", seed=7)
    manifest.finish()
    return manifest.to_dict(), schema.MANIFEST_SCHEMA


def _run_document(tmp_path):
    with tracing_session(capacity=8) as tracer:
        kernel, total = _small_fork_run()
    doc = run_document(RunManifest.create("unit"), {"total": total},
                       tracer=tracer)
    return doc, schema.RUN_SCHEMA


def _profile_document(tmp_path):
    profiler = cProfile.Profile()
    kernel, _ = profiler.runcall(_small_fork_run)
    doc = profile_document("unit", profile_stats(kernel.system),
                           host=host_layers(profiler))
    return doc, schema.PROFILE_SCHEMA


def _faults_document(tmp_path):
    doc = campaign.run_campaign("unit", [0.0, 0.05], trials=1, ops=40,
                                pages=2, seed=7, results_dir=tmp_path)
    return doc, schema.FAULTS_SCHEMA


def _key_drift(doc, spec, path="$"):
    """Keys a document lacks (required) or adds (undeclared), recursively.

    Checks every object whose schema lists ``properties``, whether or not
    that schema sets ``additionalProperties: false``.
    """
    drift = []
    if isinstance(doc, dict) and "properties" in spec:
        declared = spec["properties"]
        drift += [f"{path}.{key}: missing" for key in spec.get("required", ())
                  if key not in doc]
        drift += [f"{path}.{key}: undeclared" for key in doc
                  if key not in declared]
        for key, value in doc.items():
            if key in declared:
                drift += _key_drift(value, declared[key], f"{path}.{key}")
    elif isinstance(doc, list) and "items" in spec:
        for index, item in enumerate(doc):
            drift += _key_drift(item, spec["items"], f"{path}[{index}]")
    return drift


class TestProducersMatchSchemas:
    """The runtime form of the schema-drift contract: producer output,
    mirrored literals and profiler stat names stay in sync."""

    @pytest.mark.parametrize("build", [
        _manifest_document, _run_document, _profile_document,
        _faults_document,
    ], ids=["manifest", "run", "profile", "faults"])
    def test_document_validates_with_exactly_its_keys(self, build,
                                                      tmp_path):
        doc, spec = build(tmp_path)
        schema.validate(doc, spec, build.__name__)
        assert _key_drift(doc, spec) == []

    def test_campaign_outcomes_mirror_the_schema(self):
        assert tuple(campaign.OUTCOMES) == tuple(schema.FAULT_OUTCOMES)

    def test_profiler_reads_only_registered_stats(self):
        """Each attribution rule reads only stats its component exports.

        A misspelt name would silently attribute zero cycles.  The
        scopes and blocks of a real machine give each rule's registered
        names; the core rule reads :class:`CoreStats`, which the core
        returns rather than registering in the tree.
        """
        registered = {"core*": {spec.name for spec in fields(CoreStats)}}

        def collect(scope):
            named = [(scope["name"], scope["scalars"])]
            named += list(scope["blocks"].items())
            for name, values in named:
                for pattern, _ in SCOPE_RULES:
                    if fnmatchcase(name, pattern):
                        registered.setdefault(pattern, set()).update(values)
            for child in scope["children"]:
                collect(child)

        kernel, _ = _small_fork_run()
        collect(kernel.system.stats_scope.to_dict())

        class Recorder(dict):
            def __init__(self):
                super().__init__()
                self.read = set()

            def get(self, key, default=None):
                self.read.add(key)
                return default

        for pattern, rule in SCOPE_RULES:
            scalars = Recorder()
            rule(scalars, DEFAULT_CONFIG)
            assert scalars.read, pattern
            assert pattern in registered, f"no scope matches {pattern!r}"
            unknown = scalars.read - registered[pattern]
            assert not unknown, (pattern, sorted(unknown))
