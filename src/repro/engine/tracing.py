r"""Opt-in trace hooks — the engine half of the observability layer.

The engine *publishes* events; it never records them.  A single
process-wide slot (:data:`HOOKS`\ ``.active``) holds the installed
:class:`TraceSink`, and every hook site in the engine follows one
pattern::

    if HOOKS.active is not None:
        HOOKS.active.emit(time, category, name, args)

A second, independent slot (:data:`HOOKS`\ ``.sampler``) carries the
*cycle sampler* interface for time-series metrics: the clock notifies
the sampler whenever simulated time moves
(:meth:`~repro.engine.clock.SimClock._observe`), and a component
notifies it whenever it is built without a parent — a fresh machine
root (:class:`~repro.engine.component.Component`).  The
recorder (:class:`repro.obs.metrics.MetricsSampler`) decides what to
snapshot at which epoch; the engine only publishes.

Hot-path contract (asserted by ``tests/test_obs.py``): with no sink or
sampler installed each hook is one attribute load plus an ``is None``
test — no calls, no allocations, and no change to any simulated cycle
count.  Event *payload* dictionaries are therefore only built inside
the guard, never before it.

The recording side (ring buffer, JSONL and Chrome-trace exporters)
lives in :mod:`repro.obs.trace`; the engine only defines the interface
so rank-1 components (TLB, OMS, coherence) can emit events without an
upward import.

Determinism: event times come from :class:`~repro.engine.clock.SimClock`
(or are back-filled by the sink from the last clock event), never from
the wall clock, so a traced run with a fixed ``rng_seed`` produces a
byte-identical event stream (the SL001 check of
``tests/test_architecture.py`` covers this module like any other sim path).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from .process_state import register as register_process_state


class TraceError(RuntimeError):
    """Raised on conflicting sink installation."""


class TraceSink:
    """Interface every trace recorder implements.

    ``emit(time, category, name, args)`` receives the simulated cycle
    the event happened at (``None``: the sink back-fills the last
    observed clock time), a short category (``"clock"``, ``"port"``,
    ``"tlb"``, ...), an event name, and an optional payload dict.
    """

    def emit(self, time: Optional[int], category: str, name: str,
             args: Optional[Dict[str, Any]] = None) -> None:
        raise NotImplementedError


class CycleSampler:
    """Interface a time-series sampler implements.

    ``on_cycle(cycle)`` fires whenever simulated time is observed moving
    (cursor advances and event-driven seeks); ``on_root(component)``
    fires when a new root component — a freshly built machine — joins
    the process, so the sampler can bind its statistics registry without
    the harness threading it through every layer.
    """

    def on_cycle(self, cycle: int) -> None:
        """Optional callback; the default ignores the observation."""

    def on_root(self, component) -> None:
        """Optional callback; the default ignores the new root."""


class FaultHook:
    """Interface a fault injector implements (the ``HOOKS.faults`` slot).

    The engine publishes *opportunities* to inject; the installed hook
    (normally :class:`repro.robust.FaultInjector`) decides — off its own
    deterministic RNG — whether a fault actually fires.  Each site method
    corresponds to one structure named in the fault taxonomy:

    * ``on_omt_walk(entry)`` — an OMT entry just came out of an OMT walk
      (``core/omt.py``); the hook may flip bits of the entry in place.
    * ``on_obitvector_copy(vector)`` — an OBitVector was copied
      (``core/obitvector.py``: the TLB-fill snapshot path); the hook may
      corrupt the fresh copy.
    * ``on_tlb_fill(entry)`` — a translation was just installed in a TLB
      (``core/tlb.py``); the hook may corrupt the cached entry.
    * ``filter_coherence(kind, opn, line)`` — a coherence message is
      about to broadcast (``core/coherence.py``); returns
      ``(deliver, extra_cycles)``: ``deliver=False`` drops the message
      (TLBs and the OMT never hear about the remap/commit),
      ``extra_cycles`` delays it.
    * ``on_dram_read(address)`` — a DRAM line read is in flight
      (``mem/dram.py``); returns extra latency cycles charged by the
      ECC model (correction or detect-and-retry), 0 when no fault fires.

    Zero-overhead-when-off contract (same as the tracer and sampler
    slots, asserted by ``tests/test_robust_faults.py``): every site is
    guarded by ``if HOOKS.faults is not None`` — one attribute load plus
    an ``is None`` test, no calls, no allocations, no cycle changes.
    """

    def on_omt_walk(self, entry) -> None:
        """Optional callback; the default injects nothing."""

    def on_obitvector_copy(self, vector) -> None:
        """Optional callback; the default injects nothing."""

    def on_tlb_fill(self, entry) -> None:
        """Optional callback; the default injects nothing."""

    def filter_coherence(self, kind: str, opn: int, line: int):
        """Return ``(deliver, extra_cycles)``; default delivers on time."""
        return True, 0

    def on_dram_read(self, address: int) -> int:
        """Return extra read-latency cycles; default injects nothing."""
        return 0


class SamplerFanout(CycleSampler):
    """Feed one sampler slot to several recorders (metrics + profiler)."""

    def __init__(self, *samplers: CycleSampler) -> None:
        self.samplers = list(samplers)

    def on_cycle(self, cycle: int) -> None:
        for sampler in self.samplers:
            sampler.on_cycle(cycle)

    def on_root(self, component) -> None:
        for sampler in self.samplers:
            sampler.on_root(component)


class TraceHooks:
    """The process-wide hook slots; each is ``None`` when off."""

    __slots__ = ("active", "sampler", "faults")

    def __init__(self) -> None:
        self.active: Optional[TraceSink] = None
        self.sampler: Optional[CycleSampler] = None
        self.faults: Optional[FaultHook] = None


#: The one slot every hook site reads.  Hook sites import this object
#: (not its attribute) so installing a sink is visible everywhere.
HOOKS = TraceHooks()


def _reset_hooks() -> None:
    HOOKS.active = None
    HOOKS.sampler = None
    HOOKS.faults = None


# The hook slots are process-wide mutable state: a run that starts with
# an armed tracer/sampler/fault hook left over from an earlier one
# diverges from a fresh process.  Registering them makes
# ``process_state.reset_all()`` disarm everything.
register_process_state(
    "repro.engine.tracing.HOOKS",
    snapshot=lambda: (HOOKS.active is not None,
                      HOOKS.sampler is not None,
                      HOOKS.faults is not None),
    reset=_reset_hooks)


def install(sink: TraceSink) -> TraceSink:
    """Arm tracing: route every engine event to *sink*.

    Exactly one sink may be active; installing over a live sink raises
    :class:`TraceError` so nested sessions fail loudly instead of
    silently stealing each other's events.
    """
    if HOOKS.active is not None:
        raise TraceError("a trace sink is already installed; "
                         "uninstall() it first")
    HOOKS.active = sink
    return sink


def uninstall() -> None:
    """Disarm tracing (idempotent; safe to call with no sink installed)."""
    HOOKS.active = None


def active() -> Optional[TraceSink]:
    """The installed sink, or ``None`` when tracing is off."""
    return HOOKS.active


def install_sampler(sampler: CycleSampler) -> CycleSampler:
    """Arm cycle sampling: route clock/root notifications to *sampler*.

    Exactly one sampler may be active (compose with a fan-out sampler to
    feed several recorders); installing over a live one raises
    :class:`TraceError`.
    """
    if HOOKS.sampler is not None:
        raise TraceError("a cycle sampler is already installed; "
                         "uninstall_sampler() it first")
    HOOKS.sampler = sampler
    return sampler


def uninstall_sampler() -> None:
    """Disarm cycle sampling (idempotent)."""
    HOOKS.sampler = None


def active_sampler() -> Optional[CycleSampler]:
    """The installed sampler, or ``None`` when sampling is off."""
    return HOOKS.sampler


def install_faults(hook: FaultHook) -> FaultHook:
    """Arm fault injection: route every injection site to *hook*.

    Exactly one fault hook may be active; installing over a live one
    raises :class:`TraceError` so overlapping campaigns fail loudly.
    """
    if HOOKS.faults is not None:
        raise TraceError("a fault hook is already installed; "
                         "uninstall_faults() it first")
    HOOKS.faults = hook
    return hook


def uninstall_faults() -> None:
    """Disarm fault injection (idempotent)."""
    HOOKS.faults = None


def active_faults() -> Optional[FaultHook]:
    """The installed fault hook, or ``None`` when injection is off."""
    return HOOKS.faults
