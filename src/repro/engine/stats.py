"""Hierarchical statistics registry for the simulated machine.

Every component registers its statistics exactly once, under its own
scope in the machine's registry tree.  Counters are the numeric fields
of plain dataclass instances ("blocks"), registered in one of two ways:

* :meth:`StatsRegistry.own_block` — the component's own counters, which
  appear directly in its scope;
* :meth:`StatsRegistry.register_block` — the counters of a
  non-component the component holds (the hierarchy's prefetcher, the
  controller's OMT cache), under the block's name.

The registry is the machine's one tree.  :meth:`StatsRegistry.to_dict`
is its structural view and :meth:`StatsRegistry.flat_paths` its flat
view.  Names are unique within a scope; re-registering raises
:class:`StatsError` — stats are wired once, at construction.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple, Union

Number = Union[int, float]


class StatsError(ValueError):
    """Raised on a duplicate registration."""


def snapshot_block(block: object) -> Dict[str, Number]:
    """Numeric fields of a stats block."""
    return {key: value for key, value in vars(block).items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)}


def merge_blocks(target: object, source: object) -> None:
    """Sum *source*'s numeric fields into *target* (same block type)."""
    for key, value in snapshot_block(source).items():
        setattr(target, key, getattr(target, key, 0) + value)


class StatsRegistry:
    """One scope of the machine's statistics tree.

    A scope holds at most one own block, named blocks, and child
    scopes — one per sub-component.  The root scope therefore mirrors
    the machine: ``system -> hierarchy -> l1`` and so on.
    """

    def __init__(self, name: str = "root"):
        self.name = name
        self._blocks: Dict[str, object] = {}
        self._children: Dict[str, "StatsRegistry"] = {}
        self._own_block: Optional[object] = None

    # -- registration (once, at construction) ------------------------------

    def _check_free(self, name: str) -> None:
        if name in self._blocks or name in self._children:
            raise StatsError(f"{self.name!r} already registers {name!r}")

    def register_block(self, name: str, block: object) -> object:
        """Adopt a stats dataclass under *name*; duplicate names raise."""
        self._check_free(name)
        self._blocks[name] = block
        return block

    def own_block(self, block: object) -> object:
        """Adopt a stats dataclass as this scope's *own* counters.

        Its fields appear directly in the scope (the flat view emits
        them under the scope's path).  A scope owns at most one block.
        """
        if self._own_block is not None:
            raise StatsError(f"{self.name!r} already owns a stats block")
        self._own_block = block
        return block

    def child(self, name: str) -> "StatsRegistry":
        """Create a child scope; duplicate names raise."""
        self._check_free(name)
        node = StatsRegistry(name)
        self._children[name] = node
        return node

    def adopt(self, node: "StatsRegistry") -> "StatsRegistry":
        """Attach an existing registry as a child scope."""
        self._check_free(node.name)
        self._children[node.name] = node
        return node

    # -- views --------------------------------------------------------------

    def walk(self, prefix: str = "") -> Iterator[Tuple[str, "StatsRegistry"]]:
        """Yield ``(dotted_path, scope)`` for this scope and descendants."""
        path = f"{prefix}.{self.name}" if prefix else self.name
        yield path, self
        for node in self._children.values():
            yield from node.walk(path)

    def scalars(self) -> Dict[str, Number]:
        """This scope's own values: the fields of its own block (no
        named blocks, no children)."""
        if self._own_block is None:
            return {}
        return snapshot_block(self._own_block)

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready structural view of this scope and its subtree.

        ``{"name", "scalars", "blocks", "children"}`` keeps the scope
        structure explicit, so exporters can round-trip the tree shape
        and machine-readable consumers can tell a child scope from a
        named block.
        """
        return {
            "name": self.name,
            "scalars": self.scalars(),
            "blocks": {name: snapshot_block(block)
                       for name, block in self._blocks.items()},
            "children": [node.to_dict()
                         for node in self._children.values()],
        }

    def flat_paths(self, prefix: str = "") -> Dict[str, Number]:
        """Every numeric value in the subtree, keyed by full dotted path.

        Own-block fields appear as ``scope.path.name``; named blocks
        contribute ``scope.path.block_name.field``.  Paths are
        unambiguous: duplicate leaf scope names in different subtrees
        stay distinct.  This is the shape the run-comparison tooling
        and the perf benchmark key their metrics by.
        """
        out: Dict[str, Number] = {}
        for path, node in self.walk(prefix):
            for name, value in node.scalars().items():
                out[f"{path}.{name}"] = value
            for block_name, block in node._blocks.items():
                for key, value in snapshot_block(block).items():
                    out[f"{path}.{block_name}.{key}"] = value
        return out

    def __repr__(self) -> str:
        return (f"StatsRegistry({self.name!r}, "
                f"{len(self._blocks)} blocks, "
                f"{len(self._children)} children)")
