"""Content-addressed shard result cache under ``results/fleet/``.

Each executed shard leaves one artifact at
``<cache_dir>/<shard.key()>.json`` holding the shard's identity (kind,
key, params, deterministic manifest) plus its payload, written through
the crash-safe :func:`repro.obs.export.write_json` — a worker killed
mid-write can never leave a torn entry, so every file a resume finds
is complete.

A cache *hit* requires the stored document to validate against
:data:`SHARD_CACHE_SCHEMA`, carry the current :data:`~repro.fleet.
shards.FLEET_FORMAT`, and echo the shard's own key.  Anything else —
a hand-edited file, an entry from an older format, a key mismatch — is
treated as a miss and recomputed; a stale cache can slow a resume down
but can never corrupt a merged result.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Tuple, Union

from ..obs.export import write_json
from ..obs.schema import schema_errors
from .shards import FLEET_FORMAT, Shard

#: Schema of one ``<key>.json`` shard cache document.
SHARD_CACHE_SCHEMA = {
    "type": "object",
    "required": ["fleet_format", "kind", "key", "params", "manifest",
                 "payload"],
    "properties": {
        "fleet_format": {"type": "integer", "minimum": 1},
        "kind": {"type": "string"},
        "key": {"type": "string"},
        "params": {"type": "object"},
        "manifest": {"type": "object"},
        "payload": {},
    },
    "additionalProperties": False,
}

#: Sentinel distinguishing "no cached payload" from a cached ``None``.
MISS = object()


def shard_cache_path(cache_dir: Union[str, Path], shard: Shard) -> Path:
    """Where *shard*'s result artifact lives under *cache_dir*."""
    return Path(cache_dir) / f"{shard.key()}.json"


def store_shard_result(cache_dir: Union[str, Path], shard: Shard,
                       payload: Any) -> Path:
    """Atomically write *shard*'s result document; returns its path."""
    doc = {
        "fleet_format": FLEET_FORMAT,
        "kind": shard.kind,
        "key": shard.key(),
        "params": shard.params,
        "manifest": shard.manifest,
        "payload": payload,
    }
    return write_json(shard_cache_path(cache_dir, shard), doc)


def probe_shard_result(cache_dir: Union[str, Path],
                       shard: Shard) -> Tuple[Any, bool]:
    """``(payload, corrupt)`` for *shard*'s cache entry.

    The payload is :data:`MISS` unless a complete, schema-valid
    document with the shard's own content address is present;
    ``corrupt`` is true when a file *exists* at the shard's path but
    fails that validation — the signature of an artifact mangled
    outside the crash-safe writer.  Either way a non-hit is recomputed
    and overwritten; the flag only feeds the
    :class:`~repro.fleet.runner.FleetSummary` ``corrupt`` counter.
    """
    try:
        text = shard_cache_path(cache_dir, shard).read_text()
    except FileNotFoundError:
        return MISS, False
    except OSError:
        return MISS, True
    try:
        doc = json.loads(text)
    except ValueError:
        return MISS, True
    if (schema_errors(doc, SHARD_CACHE_SCHEMA)
            or doc["fleet_format"] != FLEET_FORMAT
            or doc["key"] != shard.key() or doc["kind"] != shard.kind):
        return MISS, True
    return doc["payload"], False
