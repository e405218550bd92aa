"""``repro.obs`` — the observability layer on top of the engine.

Six capabilities, all opt-in and all deterministic under a fixed
``rng_seed`` (host wall-clock readings are confined to manifests and
the profiler's explicitly-labelled host section):

* **Run manifests** (:class:`~repro.obs.manifest.RunManifest`) — every
  machine-readable result records the package version, the resolved
  Table 2 configuration, the base RNG seed, and wall/duration metadata;
* **Event tracing** (:class:`~repro.obs.trace.Tracer`,
  :func:`~repro.obs.trace.tracing_session`) — a bounded ring buffer fed
  by the engine's hook points (clock advances, hierarchy-to-controller
  calls, TLB/OMS/coherence events), exported as JSONL or Chrome trace format
  for ``chrome://tracing``;
* **Stats export** (:func:`~repro.obs.export.stats_to_dict`,
  :func:`~repro.obs.export.emit_run`) — the engine's hierarchical
  stats registry serialised to ``results/*.json`` next to the ASCII
  outputs, validated against :data:`~repro.obs.schema.RUN_SCHEMA` by
  ``python -m repro.obs validate``;
* **Time-series metrics** (:class:`~repro.obs.metrics.MetricsSampler`,
  :func:`~repro.obs.metrics.metrics_session`) — epoch-based snapshots of
  selected stats scalars every N *simulated* cycles, driven off the
  engine's clock hook, exported as ``results/*.metrics.json`` and
  rendered as sparklines;
* **Cycle accounting** (:func:`~repro.obs.profile.profile_stats`,
  :class:`~repro.obs.profile.ProfileAccumulator`) — a
  where-did-the-cycles-go tree mirroring the stats scope hierarchy,
  with a host wall-clock section
  (:class:`~repro.obs.profile.WallClockProfiler`), exported as
  ``results/*.profile.json``;
* **Run comparison** (:func:`~repro.obs.compare.compare_documents`,
  ``python -m repro.obs compare``) — per-metric differential reports
  with percentage thresholds; the CI perf/regression gate.

When no tracer or sampler is installed the engine's hook sites are a
single attribute check: observability off adds zero simulated cycles
and zero allocations to the hot path (asserted by ``tests/test_obs.py``).
"""

from .compare import (CompareResult, MetricDelta, compare_documents,
                      compare_files, flatten_document, format_compare,
                      parse_threshold_specs)
from .export import (default_results_dir, emit_run, run_document,
                     stats_to_dict, write_json)
from .manifest import MANIFEST_FORMAT, RunManifest
from .metrics import (DEFAULT_INTERVAL, MetricsSample, MetricsSampler,
                      MetricsSegment, format_metrics, metrics_document,
                      metrics_session, write_metrics)
from .profile import (ProfileAccumulator, ProfileNode, WallClockProfiler,
                      format_profile, profile_document, profile_run_document,
                      profile_stats, write_profile)
from .schema import (MANIFEST_SCHEMA, METRICS_SCHEMA, PROFILE_SCHEMA,
                     RUN_SCHEMA, STATS_SCHEMA, SchemaError, schema_errors,
                     validate_manifest, validate_run)
from .trace import DEFAULT_CAPACITY, TraceEvent, Tracer, tracing_session

__all__ = [
    "CompareResult", "MetricDelta", "compare_documents", "compare_files",
    "flatten_document", "format_compare", "parse_threshold_specs",
    "default_results_dir", "emit_run", "run_document", "stats_to_dict",
    "write_json",
    "MANIFEST_FORMAT", "RunManifest",
    "DEFAULT_INTERVAL", "MetricsSample", "MetricsSampler", "MetricsSegment",
    "format_metrics", "metrics_document", "metrics_session", "write_metrics",
    "ProfileAccumulator", "ProfileNode", "WallClockProfiler",
    "format_profile", "profile_document", "profile_run_document",
    "profile_stats", "write_profile",
    "MANIFEST_SCHEMA", "METRICS_SCHEMA", "PROFILE_SCHEMA", "RUN_SCHEMA",
    "STATS_SCHEMA", "SchemaError", "schema_errors", "validate_manifest",
    "validate_run",
    "DEFAULT_CAPACITY", "TraceEvent", "Tracer", "tracing_session",
]
