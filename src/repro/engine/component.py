"""The components every simulated hardware structure is built from.

A :class:`Component` is a name plus a scope in the machine's
:class:`~repro.engine.stats.StatsRegistry` tree (``self.stats_scope``),
where the component registers its counters exactly once, at
construction: ``own_block`` for its own stats dataclass,
``register_block`` for that of a non-component it holds.  The registry
is the machine's only tree; components keep no parent or child links.

A component built with a ``parent`` registers its scope as a child of
the parent's.  One built without a parent becomes a fresh root, which
is what unit tests do; :meth:`Component.attach_child` adopts such a
root into a parent built after it.  Dataclass components call
``Component.__init__`` from ``__post_init__``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from .stats import StatsRegistry
from .tracing import HOOKS


class Component:
    """A named node of the simulated machine, with a stats scope."""

    def __init__(self, name: str, parent: Optional["Component"] = None):
        self.component_name = name
        if parent is not None:
            self.stats_scope = parent.stats_scope.child(name)
        else:
            self.stats_scope = StatsRegistry(name)
            # Root hook site: a parentless component is a fresh machine
            # root; the observer (if armed) binds its registry here,
            # filtering by name so transient sub-component roots (an
            # OMS later adopted via attach_child) don't steal the
            # binding.
            if HOOKS.roots is not None:
                HOOKS.roots.on_root(self)

    def attach_child(self, component: "Component") -> "Component":
        """Adopt an already-built component's stats scope as a child
        scope; a duplicate name raises."""
        self.stats_scope.adopt(component.stats_scope)
        return component

    def trace_event(self, category: str, name: str,
                    args: Optional[Dict[str, Any]] = None) -> None:
        """Publish an event to the installed trace sink, if any.

        Convenience for cold paths; the event name is qualified with the
        component's name.  Hot paths should guard with ``HOOKS.active
        is not None`` *before* building the ``args`` dict so a disabled
        tracer costs no allocation (see :mod:`repro.engine.tracing`).
        """
        sink = HOOKS.active
        if sink is not None:
            sink.emit(None, category, f"{self.component_name}.{name}", args)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(component={self.component_name!r})"
