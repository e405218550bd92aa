"""repro.fleet — sharded campaign execution: parallel, resumable, cached.

Rank 3 in the layer DAG, next to the sweeps it decomposes.  Every
sweep in the repo is a pure function of its seeds and its
:class:`~repro.config.SystemConfig`, which makes it decomposable into
independent **shards** — one fault-campaign trial, one sparsity point —
that can run on any worker, in any order, at any time, and still merge
into the byte-identical serial artifact.  Three pieces:

* :mod:`repro.fleet.shards` — the :class:`Shard` work unit (kind +
  params + deterministic manifest half) and its SHA-256 content
  address; runners resolve lazily through :data:`SHARD_RUNNERS`;
* :mod:`repro.fleet.cache` — one crash-safe artifact per executed
  shard under ``results/fleet/<name>/<key>.json``; complete-or-absent
  by construction, validated on every read;
* :mod:`repro.fleet.runner` — :func:`run_fleet`: cache lookup, then a
  ``ProcessPoolExecutor`` whose workers start behind
  :func:`repro.engine.process_state.fork_guard`, then an in-order
  merge; :class:`FleetSummary` reports shard-level hit/miss counters.

Converted sweeps: ``repro.robust.campaign.run_campaign(fleet_workers=
N)`` and ``repro.eval.sparsity_sweep.run_sparsity_sweep(fleet_workers=
N)``; the CLIs expose ``--fleet-workers N`` / ``--resume``.
"""

from .cache import (MISS, SHARD_CACHE_SCHEMA, probe_shard_result,
                    shard_cache_path, store_shard_result)
from .runner import (FALLBACK_WORKERS, WORKERS_ENV, FleetResult,
                     FleetSummary, default_fleet_resume,
                     default_fleet_workers, resolve_worker_count, run_fleet,
                     set_default_fleet)
from .shards import (FLEET_FORMAT, SHARD_RUNNERS, Shard, ShardError,
                     execute_shard)

__all__ = [
    "FALLBACK_WORKERS",
    "FLEET_FORMAT",
    "FleetResult",
    "FleetSummary",
    "MISS",
    "SHARD_CACHE_SCHEMA",
    "SHARD_RUNNERS",
    "Shard",
    "ShardError",
    "WORKERS_ENV",
    "default_fleet_resume",
    "default_fleet_workers",
    "execute_shard",
    "probe_shard_result",
    "resolve_worker_count",
    "run_fleet",
    "set_default_fleet",
    "shard_cache_path",
    "store_shard_result",
]
