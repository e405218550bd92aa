"""``repro.obs`` — the observability layer on top of the engine.

Five capabilities, all opt-in; everything but the host readings is
deterministic under a fixed ``rng_seed`` (host readings are confined
to manifests and the profiler's explicitly labelled ``host`` section):

* **Run manifests** (:class:`~repro.obs.manifest.RunManifest`) — every
  machine-readable result records the package version, the resolved
  Table 2 configuration, the base RNG seed, and wall/duration metadata;
* **Event tracing** (:class:`~repro.obs.trace.Tracer`,
  :func:`~repro.obs.trace.tracing_session`) — a bounded ring buffer fed
  by the engine's hook points (clock advances, hierarchy-to-controller
  calls, TLB/OMS/coherence events), exported as JSONL or Chrome trace format
  for ``chrome://tracing``;
* **Run documents** (:func:`~repro.obs.export.emit_run`) — each
  experiment's data and manifest serialised to ``results/*.json`` next
  to the ASCII outputs, validated against
  :data:`~repro.obs.schema.RUN_SCHEMA` by ``python -m repro.obs
  validate``;
* **Profiles** (:func:`~repro.obs.profile.profile_stats`,
  :class:`~repro.obs.profile.ProfileAccumulator`,
  :func:`~repro.obs.profile.host_layers`) — where the simulated cycles
  went, as a tree mirroring the stats scope hierarchy, and where the
  host seconds went, as ``cProfile`` self time by layer; exported as
  ``results/*.profile.json``;
* **Run comparison** (:func:`~repro.obs.compare.compare_documents`,
  ``python -m repro.obs compare``) — per-metric differential reports
  with percentage thresholds, a manual tool for suite documents.

When no tracer or root observer is installed the engine's hook sites
are a single attribute check: observability off adds zero simulated
cycles and zero allocations to the hot path (asserted by
``tests/test_obs.py``).
"""

from .compare import (CompareResult, MetricDelta, compare_documents,
                      compare_files, flatten_document, format_compare,
                      parse_threshold_specs)
from .export import default_results_dir, emit_run, run_document, write_json
from .manifest import MANIFEST_FORMAT, RunManifest
from .profile import (ProfileAccumulator, ProfileNode, format_profile,
                      host_layers, profile_document, profile_stats,
                      write_profile)
from .schema import (MANIFEST_SCHEMA, PROFILE_SCHEMA, RUN_SCHEMA,
                     STATS_SCHEMA, SchemaError, schema_errors,
                     validate_manifest, validate_run)
from .trace import DEFAULT_CAPACITY, TraceEvent, Tracer, tracing_session

__all__ = [
    "CompareResult", "MetricDelta", "compare_documents", "compare_files",
    "flatten_document", "format_compare", "parse_threshold_specs",
    "default_results_dir", "emit_run", "run_document", "write_json",
    "MANIFEST_FORMAT", "RunManifest",
    "ProfileAccumulator", "ProfileNode", "format_profile", "host_layers",
    "profile_document", "profile_stats", "write_profile",
    "MANIFEST_SCHEMA", "PROFILE_SCHEMA", "RUN_SCHEMA", "STATS_SCHEMA",
    "SchemaError", "schema_errors", "validate_manifest",
    "validate_run",
    "DEFAULT_CAPACITY", "TraceEvent", "Tracer", "tracing_session",
]
