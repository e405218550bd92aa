"""The component tree every simulated hardware structure hangs off.

A :class:`Component` is a named node with three shared facilities:

* a scope in the machine's :class:`~repro.engine.stats.StatsRegistry`
  tree (``self.stats_scope``), where the component registers its
  counters/blocks exactly once at construction;
* the machine's :class:`~repro.engine.clock.SimClock`
  (``self.sim_clock``), inherited from the parent so the whole tree
  shares one timeline;
* parent/child links, so whole-machine operations (snapshot, reset,
  tree dump) are one traversal instead of ad-hoc plumbing.

Standalone construction stays cheap: a component built without a parent
becomes its own root with a private clock and registry, which is what
unit tests and the hand-wired legacy constructors do.

``Component`` is deliberately cooperative: plain classes call
``super().__init__`` / :meth:`init_component` from their own
constructor, while dataclasses call :meth:`init_component` from
``__post_init__``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional

from .clock import SimClock
from .stats import StatsRegistry
from .tracing import HOOKS


class Component:
    """A named node in the simulated machine's component tree."""

    def __init__(self, name: str, parent: Optional["Component"] = None,
                 clock: Optional[SimClock] = None):
        self.init_component(name, parent=parent, clock=clock)

    def init_component(self, name: str, parent: Optional["Component"] = None,
                       clock: Optional[SimClock] = None) -> None:
        """Wire this object into the component tree (idempotent guard)."""
        self.component_name = name
        self._parent = parent
        self._children: Dict[str, "Component"] = {}
        if parent is not None:
            self.sim_clock = clock or parent.sim_clock
            self.stats_scope = parent.stats_scope.child(name)
            parent._children[name] = self
        else:
            self.sim_clock = clock or SimClock()
            self.stats_scope = StatsRegistry(name)
            # Sampling hook site: a parentless component is a fresh
            # machine root; the sampler (if armed) binds its registry
            # here, filtering by name so transient sub-component roots
            # (a bare DRAM later adopted via attach_child) don't steal
            # the binding.
            if HOOKS.sampler is not None:
                HOOKS.sampler.on_root(self)

    # -- tree management -----------------------------------------------------

    @property
    def parent(self) -> Optional["Component"]:
        return self._parent

    def attach_child(self, component: "Component") -> "Component":
        """Adopt an already-built component (and its stats) as a child."""
        name = component.component_name
        if name in self._children:
            raise ValueError(f"{self.component_name!r} already has a child "
                             f"named {name!r}")
        component._parent = self
        component.sim_clock = self.sim_clock
        self._children[name] = component
        self.stats_scope.adopt(component.stats_scope)
        return component

    def child_components(self) -> List["Component"]:
        return list(self._children.values())

    def walk_components(self) -> Iterator["Component"]:
        """This component and every descendant, depth first."""
        yield self
        for child in self._children.values():
            yield from child.walk_components()

    # -- observability -------------------------------------------------------

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

    def find_component(self, path: str) -> "Component":
        """Resolve a ``/``-separated path relative to this component."""
        node: Component = self
        for part in path.split("/"):
            try:
                node = node._children[part]
            except KeyError:
                raise KeyError(f"{node.component_name!r} has no child "
                               f"{part!r}") from None
        return node

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(component={self.component_name!r}, "
                f"children={len(self._children)})")
