"""Deterministic work-unit decomposition: sweeps become shards.

A **shard** is the smallest independently executable unit of a sweep —
one fault-campaign trial, one sparsity point — described entirely by
JSON-ready data: the *kind* (which registered runner executes it), the
*params* (everything the runner needs to reproduce the unit), and the
deterministic half of the sweep's :class:`~repro.obs.manifest.
RunManifest` (package version, base RNG seed, the full resolved Table 2
config).  Because the simulator is a pure function of that data, a
shard's :meth:`~Shard.key` — the SHA-256 of its canonical JSON
encoding — is a *content address* for its result: same key, same
payload, byte for byte.  That is what makes shard results cacheable
across runs and what makes a killed fleet resumable (see
:mod:`repro.fleet.runner`).

Shard runners are registered by dotted path in :data:`SHARD_RUNNERS`
and imported lazily inside :func:`execute_shard`, so this module (and
the worker processes that import it) never pulls the upper experiment
layers in at import time — the same deferred-import inversion the
engine's builder uses.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict

#: Layout version of shard keys and cache documents.  Bumped on any
#: incompatible change so stale cache entries can never be mistaken for
#: current ones (the key changes with it).
FLEET_FORMAT = 1

#: shard kind -> (module, function) executing it.  The function takes
#: the :class:`Shard` and returns a JSON-ready payload.  Resolved
#: lazily: workers import only the layer a shard actually needs.
SHARD_RUNNERS: Dict[str, Any] = {
    "fault_trial": ("repro.robust.campaign", "run_fault_trial_shard"),
    "sparsity_point": ("repro.eval.sparsity_sweep",
                       "run_sparsity_point_shard"),
}


class ShardError(ValueError):
    """Raised on malformed shards or unknown shard kinds."""


@dataclass(frozen=True)
class Shard:
    """One independently executable unit of a sweep.

    ``index`` is the shard's merge position in the sweep (it does *not*
    participate in the content key: two sweeps asking for the same unit
    share one cache entry regardless of where the unit sits).  ``params``
    and ``manifest`` must be JSON-ready — they are hashed canonically,
    shipped to worker processes, and written into the cache document.
    """

    kind: str
    index: int
    params: Dict[str, Any] = field(hash=False)
    manifest: Dict[str, Any] = field(hash=False)

    def __post_init__(self):
        if self.kind not in SHARD_RUNNERS:
            raise ShardError(
                f"unknown shard kind {self.kind!r}; registered kinds: "
                f"{', '.join(sorted(SHARD_RUNNERS))}")
        if self.index < 0:
            raise ShardError(f"shard index must be >= 0, got {self.index}")

    def key_material(self) -> Dict[str, Any]:
        """The exact document the content address is computed over."""
        return {"fleet_format": FLEET_FORMAT, "kind": self.kind,
                "manifest": self.manifest, "params": self.params}

    def key(self) -> str:
        """The shard's content address: SHA-256 of its canonical JSON.

        Covers every deterministic input — kind, params, package
        version, base seed and the resolved Table 2 config via the
        manifest — so a key can only collide between shards whose
        results are identical by construction.
        """
        blob = json.dumps(self.key_material(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def execute_shard(shard: Shard) -> Any:
    """Run *shard*'s registered runner and return its payload.

    The runner module is imported here, at call time: the fleet layer
    stays import-light and worker processes only load the experiment
    layer their shard belongs to.
    """
    module_name, function_name = SHARD_RUNNERS[shard.kind]
    module = importlib.import_module(module_name)
    runner = getattr(module, function_name)
    return runner(shard)
