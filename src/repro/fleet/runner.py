"""The fleet runner: parallel, resumable, cached shard execution.

:func:`run_fleet` takes an ordered list of :class:`~repro.fleet.shards.
Shard`\\ s and returns their payloads in shard order, plus a
:class:`FleetSummary` of what actually ran:

* with ``resume=True`` every shard is first looked up in the
  content-addressed cache (:mod:`repro.fleet.cache`); hits skip
  simulation entirely — a killed run's surviving artifacts are found by
  exactly this lookup, which is all "resume-after-kill" is;
* misses execute on a ``concurrent.futures.ProcessPoolExecutor`` whose
  workers are initialised with :func:`repro.engine.process_state.
  fork_guard`, so each worker starts from import-time process state and
  is byte-identical to a fresh interpreter regardless of what the
  parent had armed or cached;
* every executed shard writes its own cache artifact through the
  crash-safe :func:`~repro.obs.export.write_json` *before* the parent
  merges anything, so progress survives a kill at any point.

Worker-count resolution (:func:`resolve_worker_count`) prefers an
explicit value, then ``$REPRO_FLEET_WORKERS``, then ``os.cpu_count()``
— which may legitimately return ``None``, in which case a conservative
:data:`FALLBACK_WORKERS` applies.  ``workers=1`` runs shards in-process
(same cache protocol, no pool), which is both the degenerate fleet and
the fast path for tests.

The CLI's ``--fleet-workers`` / ``--resume`` flags set process-wide
defaults here (mirroring the watchdog's ``--max-cycles`` default), and
both defaults are registered with :mod:`repro.engine.process_state` so
``reset_all``/``fork_guard`` restore them in workers.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..engine import process_state
from ..engine.process_state import register as register_process_state
from .cache import MISS, probe_shard_result, store_shard_result
from .shards import Shard, execute_shard

#: Environment fallback for the worker count (the CLI flag wins).
WORKERS_ENV = "REPRO_FLEET_WORKERS"

#: Worker count when neither the caller, the environment, nor
#: ``os.cpu_count()`` (which may return ``None``) can supply one.
FALLBACK_WORKERS = 2

#: Process-wide default fleet options, set by the CLI's
#: ``--fleet-workers`` / ``--resume`` flags.  ``None`` workers means
#: "fleet off": harnesses run their serial path.
_DEFAULT_FLEET_WORKERS: Optional[int] = None
_DEFAULT_FLEET_RESUME: bool = False


def _reset_default_fleet() -> None:
    global _DEFAULT_FLEET_WORKERS, _DEFAULT_FLEET_RESUME
    _DEFAULT_FLEET_WORKERS = None
    _DEFAULT_FLEET_RESUME = False


# A worker forked after `--fleet-workers` ran must not itself try to
# fleet its shard; registration lets fork_guard restore the import-time
# "fleet off" default (and reset_all keep in-process reruns pristine).
register_process_state(
    "repro.fleet.runner._DEFAULT_FLEET_WORKERS",
    snapshot=lambda: _DEFAULT_FLEET_WORKERS, reset=_reset_default_fleet)
register_process_state(
    "repro.fleet.runner._DEFAULT_FLEET_RESUME",
    snapshot=lambda: _DEFAULT_FLEET_RESUME, reset=_reset_default_fleet)


def set_default_fleet(workers: Optional[int],
                      resume: bool = False) -> None:
    """Set the process-wide fleet defaults harnesses consult.

    *workers* ``None`` turns the fleet off; ``0`` means "auto" (resolve
    from the environment / CPU count at run time); any other value must
    be a positive worker count.
    """
    global _DEFAULT_FLEET_WORKERS, _DEFAULT_FLEET_RESUME
    if workers is not None and workers < 0:
        raise ValueError(f"fleet worker count must be >= 0 (0 = auto), "
                         f"got {workers}")
    _DEFAULT_FLEET_WORKERS = workers
    _DEFAULT_FLEET_RESUME = bool(resume)


def default_fleet_workers() -> Optional[int]:
    """The process-wide default worker count (``None`` = fleet off)."""
    return _DEFAULT_FLEET_WORKERS


def default_fleet_resume() -> bool:
    """The process-wide default for cache reuse."""
    return _DEFAULT_FLEET_RESUME


def resolve_worker_count(workers: Optional[int] = None) -> int:
    """The effective worker count: explicit, env, CPU count, fallback.

    ``None`` or ``0`` means "auto": take ``$REPRO_FLEET_WORKERS`` if it
    parses to a positive integer, else ``os.cpu_count()`` — guarding
    the documented case where that returns ``None`` — else
    :data:`FALLBACK_WORKERS`.  Explicit negatives and a malformed or
    non-positive environment value raise rather than guess.
    """
    if workers is not None and workers != 0:
        if workers < 1:
            raise ValueError(
                f"fleet worker count must be a positive integer "
                f"(or 0/None for auto), got {workers}")
        return workers
    raw = os.environ.get(WORKERS_ENV)
    if raw is not None and raw.strip():
        try:
            from_env = int(raw)
        except ValueError:
            raise ValueError(
                f"${WORKERS_ENV} must be an integer, got {raw!r}") from None
        if from_env < 1:
            raise ValueError(
                f"${WORKERS_ENV} must be positive, got {from_env}")
        return from_env
    detected = os.cpu_count()
    if detected is None or detected < 1:
        return FALLBACK_WORKERS
    return detected


@dataclass
class FleetSummary:
    """What one fleet run actually did, shard by shard.

    ``hits`` + ``misses`` always equals ``shards``; a second identical
    invocation with ``resume=True`` reports ``misses == 0`` — zero
    simulation work — which is the property the CI fleet job and the
    cache tests assert.  ``corrupt`` counts cache entries that existed
    but failed validation (and were recomputed); it overlaps ``misses``
    rather than adding to the total.
    """

    shards: int
    hits: int
    misses: int
    workers: int
    resumed: bool
    corrupt: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {"shards": self.shards, "hits": self.hits,
                "misses": self.misses, "workers": self.workers,
                "resumed": self.resumed, "corrupt": self.corrupt}

    def describe(self) -> str:
        """One human line for CLI output."""
        line = (f"{self.shards} shard(s): {self.hits} cached, "
                f"{self.misses} executed, {self.workers} worker(s)")
        if self.corrupt:
            line += f", {self.corrupt} corrupt artifact(s) recomputed"
        return line


@dataclass
class FleetResult:
    """Payloads in shard order plus the run summary."""

    payloads: List[Any]
    summary: FleetSummary


def _execute_and_store(shard: Shard, cache_dir: str) -> Any:
    """Worker body: run the shard, persist its artifact, return payload.

    Top-level (picklable) so it works under every multiprocessing start
    method.  The artifact write is atomic and happens *before* the
    payload travels back, so a parent killed mid-merge still finds the
    result on resume.
    """
    payload = execute_shard(shard)
    store_shard_result(cache_dir, shard, payload)
    return payload


def run_fleet(shards: Sequence[Shard], *, workers: Optional[int] = None,
              resume: bool = False,
              cache_dir: Union[str, Path]) -> FleetResult:
    """Execute *shards*, reusing cached results, and merge in order.

    With ``resume=True``, shards whose content-addressed artifact
    already exists under *cache_dir* are served from it; everything
    else runs on the worker pool (``fork_guard`` as initializer) and
    writes its artifact on completion.  With ``resume=False`` the cache
    is ignored on the read side but still written, so a later resumed
    run can pick the results up.
    """
    workers = resolve_worker_count(workers)
    cache_dir = Path(cache_dir)
    sentinel = MISS
    payloads: List[Any] = [sentinel] * len(shards)
    pending: List[Tuple[int, Shard]] = []
    hits = 0
    corrupt = 0
    for position, shard in enumerate(shards):
        if resume:
            cached, mangled = probe_shard_result(cache_dir, shard)
            corrupt += mangled
            if cached is not MISS:
                payloads[position] = cached
                hits += 1
                continue
        pending.append((position, shard))
    if pending:
        if workers == 1:
            for position, shard in pending:
                payloads[position] = _execute_and_store(shard,
                                                        str(cache_dir))
        else:
            with ProcessPoolExecutor(
                    max_workers=min(workers, len(pending)),
                    initializer=process_state.fork_guard) as pool:
                futures = [(position,
                            pool.submit(_execute_and_store, shard,
                                        str(cache_dir)))
                           for position, shard in pending]
                for position, future in futures:
                    payloads[position] = future.result()
    summary = FleetSummary(shards=len(shards), hits=hits,
                           misses=len(pending), workers=workers,
                           resumed=resume, corrupt=corrupt)
    return FleetResult(payloads=payloads, summary=summary)
