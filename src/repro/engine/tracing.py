r"""Opt-in trace hooks — the engine half of the observability layer.

The engine *publishes* events; it never records them.  A single
process-wide slot (:data:`HOOKS`\ ``.active``) holds the installed
:class:`TraceSink`, and every hook site in the engine follows one
pattern::

    if HOOKS.active is not None:
        HOOKS.active.emit(time, category, name, args)

A second slot (:data:`HOOKS`\ ``.roots``) carries one notification: a
component built without a parent — a fresh machine root
(:class:`~repro.engine.component.Component`) — is handed to the
installed :class:`RootObserver`.  That is how the cycle-accounting
profiler (:class:`repro.obs.profile.ProfileAccumulator`, a
:class:`RootScopes`) finds every machine a harness builds without the
harness threading it through.

Hot-path contract (asserted by ``tests/test_obs.py``): with no sink or
observer installed each hook is one attribute load plus an ``is None``
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

from typing import Any, Dict, List, Optional

from .process_state import register as register_process_state


class TraceError(RuntimeError):
    """Raised on conflicting sink installation."""


class TraceSink:
    """Interface every trace recorder implements.

    ``emit(time, category, name, args)`` receives the simulated cycle
    the event happened at (``None``: the sink back-fills the last
    observed clock time), a short category (``"clock"``, ``"hierarchy"``,
    ``"tlb"``, ...), an event name, and an optional payload dict.
    """

    def emit(self, time: Optional[int], category: str, name: str,
             args: Optional[Dict[str, Any]] = None) -> None:
        raise NotImplementedError


class RootObserver:
    """Interface the ``HOOKS.roots`` slot holds.

    ``on_root(component)`` fires when a new root component — a freshly
    built machine — joins the process, so the observer can bind its
    statistics registry.
    """

    def on_root(self, component) -> None:
        """Optional callback; the default ignores the new root."""


class RootScopes(RootObserver):
    """Keeps the stats registry of every new root named *name*.

    The registries stay in the order the roots were built, for a reader
    that folds them after the run
    (:class:`repro.obs.profile.ProfileAccumulator`)."""

    def __init__(self, name: str = "system"):
        self.name = name
        self.scopes: List[Any] = []

    def on_root(self, component) -> None:
        if component.component_name == self.name:
            self.scopes.append(component.stats_scope)


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

    Zero-overhead-when-off contract (same as the tracer and root
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


class TraceHooks:
    """The process-wide hook slots; each is ``None`` when off."""

    __slots__ = ("active", "roots", "faults")

    def __init__(self) -> None:
        self.active: Optional[TraceSink] = None
        self.roots: Optional[RootObserver] = None
        self.faults: Optional[FaultHook] = None


#: The one slot every hook site reads.  Hook sites import this object
#: (not its attribute) so installing a sink is visible everywhere.
HOOKS = TraceHooks()


def _reset_hooks() -> None:
    HOOKS.active = None
    HOOKS.roots = None
    HOOKS.faults = None


# The hook slots are process-wide mutable state: a run that starts with
# an armed tracer/root observer/fault hook left over from an earlier one
# diverges from a fresh process.  Registering them makes
# ``process_state.reset_all()`` disarm everything.
register_process_state(
    "repro.engine.tracing.HOOKS",
    snapshot=lambda: (HOOKS.active is not None,
                      HOOKS.roots is not None,
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


def install_root_observer(observer: RootObserver) -> RootObserver:
    """Arm the root hook: hand every new machine root to *observer*.

    Exactly one observer may be active; installing over a live one
    raises :class:`TraceError`.
    """
    if HOOKS.roots is not None:
        raise TraceError("a root observer is already installed; "
                         "uninstall_root_observer() it first")
    HOOKS.roots = observer
    return observer


def uninstall_root_observer() -> None:
    """Disarm the root hook (idempotent)."""
    HOOKS.roots = None


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
