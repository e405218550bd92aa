"""``repro.engine`` — the component kernel the simulator is built on.

The engine owns the cross-cutting concerns every hardware model in
this repository needs:

* :class:`~repro.engine.component.Component` — a named node of the
  machine: a name plus a stats scope;
* :class:`~repro.engine.clock.SimClock` — the single simulation
  timeline, with per-core :class:`~repro.engine.clock.ClockCursor`
  views for event-driven interleaving;
* :class:`~repro.engine.stats.StatsRegistry` — the machine's one tree:
  stats dataclass blocks registered once per scope, viewed through
  ``to_dict()`` and ``flat_paths()``;
* :func:`~repro.engine.rng.derive_rng` — seeded-RNG derivation, so
  every synthetic-input generator draws from an explicit
  ``random.Random`` rooted at ``SystemConfig.rng_seed`` (check SL001 in
  ``tests/test_architecture.py``);
* :mod:`~repro.engine.tracing` — the opt-in trace-hook slot every
  engine structure publishes events through (free when no sink is
  installed; the recorder lives in :mod:`repro.obs`);
* :mod:`~repro.engine.process_state` — the registry of every
  process-wide mutable (hook slots, the watchdog default,
  workload caches) with ``snapshot_all``/``reset_all``, so an
  in-process rerun matches a fresh interpreter.
"""

from . import process_state, tracing
from .clock import (ClockCursor, ClockError, SimClock, SimulationHangError,
                    default_max_cycles, set_default_max_cycles)
from .component import Component
from .stats import StatsError, StatsRegistry, merge_blocks, snapshot_block
from .rng import derive_rng, resolve_seed
from .tracing import CycleSampler, FaultHook, TraceError, TraceSink

__all__ = [
    "ClockCursor", "ClockError", "SimClock", "SimulationHangError",
    "default_max_cycles", "set_default_max_cycles",
    "Component",
    "StatsError", "StatsRegistry",
    "merge_blocks", "snapshot_block",
    "derive_rng", "resolve_seed",
    "process_state",
    "tracing", "CycleSampler", "FaultHook", "TraceError", "TraceSink",
]
