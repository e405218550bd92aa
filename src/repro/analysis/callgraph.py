"""Call graph + attribute-use graph over the project symbol table.

Built once per lint run on top of :class:`~repro.analysis.symbols.
SymbolTable`, this module gives the whole-program rule SL008 its two
views of the code:

* **call edges** — ``module:Class.method`` / ``module:func`` nodes with
  edges for direct calls, ``from x import y`` aliased calls,
  ``self.method()`` resolved through the class's project-visible MRO,
  and ``ClassName()`` constructor calls; :meth:`CallGraph.reachable`
  answers interprocedural reachability (SL008's "hook site on the
  mutation path").
* **hook sites** — every call through an engine hook slot
  (``HOOKS.active.emit(...)``), annotated with whether it sits under an
  armed-check guard (``if HOOKS.active is not None:`` — directly or via
  a local alias), which is SL008's zero-overhead-when-off contract.

Like the rest of the analysis package: ASTs only, nothing imported or
executed.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set

from .symbols import (ClassSymbol, FunctionSymbol, ModuleSymbols,
                      QualifiedRef, SymbolTable, attribute_chain)

#: The engine hook holder and its slots (see ``repro.engine.tracing``).
HOOKS_MODULE = "repro.engine.tracing"
HOOKS_GLOBAL = "HOOKS"
HOOK_SLOTS = ("active", "sampler", "faults")


@dataclass(frozen=True)
class HookSite:
    """One call through an engine hook slot."""

    slot: str               # active | sampler | faults
    method: str             # emit, on_cycle, on_omt_walk, ...
    path: str
    lineno: int
    col: int
    guarded: bool           # sits under an armed-check
    func: str               # node id of the containing function


class CallGraph:
    """Call edges and hook sites, project-wide."""

    def __init__(self, table: SymbolTable) -> None:
        self.table = table
        self.nodes: Dict[str, FunctionSymbol] = {}
        self.edges: Dict[str, Set[str]] = {}
        self.hook_sites: List[HookSite] = []
        for symbols in table.modules():
            self._build_module(symbols)

    # -- node identity -------------------------------------------------------

    @staticmethod
    def module_key(symbols: ModuleSymbols) -> str:
        return symbols.module or symbols.source.display_path

    def node_id(self, symbols: ModuleSymbols, qualname: str) -> str:
        return f"{self.module_key(symbols)}:{qualname}"

    # -- construction --------------------------------------------------------

    def _build_module(self, symbols: ModuleSymbols) -> None:
        for func in symbols.functions.values():
            self._build_function(symbols, func, enclosing=None)
        for klass in symbols.classes.values():
            for method in klass.methods.values():
                self._build_function(symbols, method, enclosing=klass)

    def _build_function(self, symbols: ModuleSymbols, func: FunctionSymbol,
                        enclosing: Optional[ClassSymbol]) -> None:
        node_id = self.node_id(symbols, func.qualname)
        self.nodes[node_id] = func
        edges = self.edges.setdefault(node_id, set())
        parents = _parent_map(func.node)
        aliases = self._local_aliases(symbols, func.node)
        path = symbols.source.display_path

        def resolve_chain(chain: List[str]) -> Optional[QualifiedRef]:
            if not chain:
                return None
            if chain[0] in aliases:
                base = aliases[chain[0]]
                return QualifiedRef(base.module, base.symbol,
                                    base.attrs + tuple(chain[1:]))
            return self.table.resolve(symbols, chain)

        for sub in ast.walk(func.node):
            if isinstance(sub, ast.Call):
                self._visit_call(symbols, sub, chain_ref=resolve_chain,
                                 enclosing=enclosing, edges=edges,
                                 parents=parents, aliases=aliases,
                                 node_id=node_id, path=path)

    def _visit_call(self, symbols: ModuleSymbols, call: ast.Call,
                    chain_ref, enclosing: Optional[ClassSymbol],
                    edges: Set[str], parents: Dict[ast.AST, ast.AST],
                    aliases: Dict[str, QualifiedRef], node_id: str,
                    path: str) -> None:
        chain = attribute_chain(call.func)
        if not chain:
            return
        # self.method() -> resolve through the enclosing class's MRO.
        if chain[0] == "self" and len(chain) == 2 and enclosing is not None:
            target = self.table.resolve_method(enclosing, chain[1])
            if target is not None:
                key = target.module or \
                    (enclosing.owner.source.display_path
                     if enclosing.owner else "")
                edges.add(f"{key}:{target.qualname}")
            return
        ref = chain_ref(chain)
        if ref is None:
            return
        owner = self.table.by_name.get(ref.module) or \
            (symbols if ref.module == symbols.module else None)
        # Hook-slot call: HOOKS.<slot>.<method>(...).
        if (ref.module == HOOKS_MODULE and ref.symbol == HOOKS_GLOBAL
                and len(ref.attrs) >= 2 and ref.attrs[0] in HOOK_SLOTS):
            guarded = _is_guarded(call, ref.attrs[0], parents, aliases,
                                  chain)
            self.hook_sites.append(HookSite(
                slot=ref.attrs[0], method=ref.attrs[1], path=path,
                lineno=call.lineno, col=call.col_offset,
                guarded=guarded, func=node_id))
            return
        if owner is None:
            return
        key = self.module_key(owner)
        if not ref.attrs:
            if ref.symbol in owner.functions:
                edges.add(f"{key}:{ref.symbol}")
            elif ref.symbol in owner.classes:
                klass = owner.classes[ref.symbol]
                init = self.table.resolve_method(klass, "__init__")
                if init is not None:
                    edges.add(f"{init.module or key}:{init.qualname}")
        elif len(ref.attrs) == 1 and ref.symbol in owner.classes:
            klass = owner.classes[ref.symbol]
            target = self.table.resolve_method(klass, ref.attrs[0])
            if target is not None:
                edges.add(f"{target.module or key}:{target.qualname}")

    def _local_aliases(self, symbols: ModuleSymbols,
                       func: ast.AST) -> Dict[str, QualifiedRef]:
        """``sink = HOOKS.active``-style single-name aliases of globals."""
        aliases: Dict[str, QualifiedRef] = {}
        for sub in ast.walk(func):
            if not isinstance(sub, ast.Assign) or len(sub.targets) != 1:
                continue
            target = sub.targets[0]
            if not isinstance(target, ast.Name):
                continue
            chain = attribute_chain(sub.value)
            if not chain or chain[0] == "self":
                continue
            ref = self.table.resolve(symbols, chain)
            if ref is not None and self.table.lookup_global(
                    QualifiedRef(ref.module, ref.symbol)) is not None:
                aliases[target.id] = ref
        return aliases

    # -- queries -------------------------------------------------------------

    def reachable(self, seeds: Set[str]) -> Set[str]:
        """Every node reachable from *seeds* (inclusive) via call edges."""
        seen: Set[str] = set()
        frontier = [seed for seed in seeds if seed in self.edges
                    or seed in self.nodes]
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            for succ in self.edges.get(node, ()):
                if succ not in seen:
                    frontier.append(succ)
        return seen


def _parent_map(root: ast.AST) -> Dict[ast.AST, ast.AST]:
    parents: Dict[ast.AST, ast.AST] = {}
    for node in ast.walk(root):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def _tests_in(test: ast.expr) -> Iterator[ast.expr]:
    """The conjuncts of a (possibly ``and``-joined) if-test."""
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        for value in test.values:
            yield from _tests_in(value)
    else:
        yield test


def _is_armed_check(test: ast.expr, slot: str,
                    aliases: Dict[str, QualifiedRef],
                    call_chain: List[str]) -> bool:
    """Does *test* assert the hook slot (or its local alias) is armed?"""
    for conjunct in _tests_in(test):
        if not isinstance(conjunct, ast.Compare) or \
                len(conjunct.ops) != 1 or \
                not isinstance(conjunct.ops[0], ast.IsNot) or \
                not isinstance(conjunct.comparators[0], ast.Constant) or \
                conjunct.comparators[0].value is not None:
            continue
        chain = attribute_chain(conjunct.left)
        if not chain:
            continue
        # Direct: ``HOOKS.<slot> is not None`` (with any import alias of
        # HOOKS as the base; compare against the call's own base chain).
        if len(chain) >= 2 and chain[-1] == slot and \
                chain[:-1] == call_chain[:len(chain) - 1]:
            return True
        # Alias: ``sink = HOOKS.<slot>`` ... ``sink is not None``.
        if len(chain) == 1 and chain[0] in aliases:
            ref = aliases[chain[0]]
            if (ref.module == HOOKS_MODULE and ref.symbol == HOOKS_GLOBAL
                    and ref.attrs and ref.attrs[0] == slot):
                return True
    return False


def _is_guarded(call: ast.Call, slot: str,
                parents: Dict[ast.AST, ast.AST],
                aliases: Dict[str, QualifiedRef],
                call_chain: List[str]) -> bool:
    """Is *call* inside an ``if <slot armed>:`` body?"""
    node: ast.AST = call
    while node in parents:
        parent = parents[node]
        if isinstance(parent, ast.If) and node in parent.body or \
                isinstance(parent, ast.IfExp) and node is parent.body:
            test = parent.test
            if _is_armed_check(test, slot, aliases, call_chain):
                return True
        node = parent
    return False
