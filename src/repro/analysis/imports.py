"""SL004 — the layer DAG, checked against the real import graph.

The simulator's layers, bottom to top::

    config, engine                    (rank 0: the kernel; no sim imports)
    mem, core, cpu, osmodel, obs      (rank 1: hardware structures and
                                       the observability layer on the
                                       engine's hook points)
    techniques                        (rank 2: Table 1 techniques)
    eval, workloads, sparse, robust   (rank 3: experiments, inputs, and
                                       fault-injection campaigns)

A module may import its own tier or below, never above, and the
module-level import graph must be acyclic.  Only *import-time* edges
count: statements at module (or class) scope, excluding ``if
TYPE_CHECKING:`` blocks.  Deferred imports inside function bodies are
the sanctioned dependency-inversion mechanism — that is how
``techniques/sparse.py`` re-exports the sparse substrate without
importing the upper tier at import time.

Top-level package modules (``repro``, ``repro.__main__``) and the
analysis package itself are unranked: they orchestrate every layer by
design.  So are modules outside ``repro`` (benchmarks, examples) —
they sit above the whole stack.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .findings import Finding
from .modules import SourceModule

#: Layer rank of each ``repro.<layer>`` package (lower = further down).
LAYER_RANKS: Dict[str, int] = {
    "config": 0, "engine": 0,
    "mem": 1, "core": 1, "cpu": 1, "osmodel": 1, "obs": 1,
    "techniques": 2,
    "eval": 3, "workloads": 3, "sparse": 3, "robust": 3,
}


def layer_of(module: str) -> Optional[str]:
    """The ranked layer a dotted module name belongs to, if any."""
    parts = module.split(".")
    if len(parts) >= 2 and parts[0] == "repro" and parts[1] in LAYER_RANKS:
        return parts[1]
    return None


def rank_of(module: str) -> Optional[int]:
    layer = layer_of(module)
    return None if layer is None else LAYER_RANKS[layer]


def _is_type_checking_guard(test: ast.expr) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def _import_time_statements(body: Iterable[ast.stmt]) -> Iterator[ast.stmt]:
    """Statements executed when the module is imported.

    Recurses through module-level ``if``/``try`` and class bodies, skips
    function bodies and ``if TYPE_CHECKING:`` blocks.
    """
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If):
            if not _is_type_checking_guard(node.test):
                yield from _import_time_statements(node.body)
            yield from _import_time_statements(node.orelse)
        elif isinstance(node, ast.Try):
            for block in (node.body, node.orelse, node.finalbody):
                yield from _import_time_statements(block)
            for handler in node.handlers:
                yield from _import_time_statements(handler.body)
        elif isinstance(node, ast.ClassDef):
            yield from _import_time_statements(node.body)


def resolve_import_from(node: ast.ImportFrom, package: str) -> Optional[str]:
    """Absolute dotted target of a (possibly relative) ``from`` import."""
    if node.level == 0:
        return node.module
    parts = package.split(".") if package else []
    drop = node.level - 1
    if drop > len(parts):
        return None
    base = parts[:len(parts) - drop]
    if node.module:
        base = base + node.module.split(".")
    return ".".join(base) if base else None


def import_time_targets(module: SourceModule) -> Iterator[Tuple[int, str]]:
    """Yield ``(line, dotted_target)`` for every import-time import."""
    for node in _import_time_statements(module.tree.body):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            target = resolve_import_from(node, module.package)
            if target is None:
                continue
            # ``from repro.mem import hierarchy`` names submodules; count
            # the submodule when it exists in the run, else the package.
            yield node.lineno, target
            for alias in node.names:
                yield node.lineno, f"{target}.{alias.name}"


def build_import_graph(modules: List[SourceModule]) -> Dict[str, Set[str]]:
    """Module-level (import-time) edges among the collected modules."""
    known = {module.module for module in modules if module.module}
    graph: Dict[str, Set[str]] = {name: set() for name in known}
    for module in modules:
        if not module.module:
            continue
        for _, target in import_time_targets(module):
            if target in known and target != module.module:
                graph[module.module].add(target)
    return graph


def _strongly_connected(graph: Dict[str, Set[str]]) -> List[List[str]]:
    """Tarjan's SCC algorithm (iterative), smallest-name-first output."""
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    counter = [0]
    components: List[List[str]] = []

    for start in sorted(graph):
        if start in index:
            continue
        work: List[Tuple[str, Iterator[str]]] = [
            (start, iter(sorted(graph[start])))]
        index[start] = lowlink[start] = counter[0]
        counter[0] += 1
        stack.append(start)
        on_stack.add(start)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in index:
                    index[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(graph[succ]))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1:
                    components.append(sorted(component))
    return components


def check_layering(modules: List[SourceModule]) -> Iterator[Finding]:
    """SL004: upward import-time imports and module cycles."""
    by_name = {module.module: module for module in modules if module.module}
    for module in modules:
        importer_rank = rank_of(module.module)
        if importer_rank is None:
            continue
        reported: Set[str] = set()
        for line, target in import_time_targets(module):
            target_rank = rank_of(target)
            if target_rank is None or target_rank <= importer_rank:
                continue
            # Normalise "from pkg import symbol" duplicates to the
            # longest known module prefix.
            anchor = target if target in by_name else target.rpartition(".")[0]
            if anchor in reported:
                continue
            reported.add(anchor)
            yield Finding(
                code="SL004", path=module.display_path, line=line, col=0,
                message=(f"upward import: {module.module} "
                         f"(layer {layer_of(module.module)!r}, "
                         f"rank {importer_rank}) imports {anchor} "
                         f"(layer {layer_of(target)!r}, rank {target_rank})"),
                symbol=f"{module.module}->{anchor}")
    graph = build_import_graph(modules)
    for component in _strongly_connected(graph):
        head = component[0]
        module = by_name[head]
        yield Finding(
            code="SL004", path=module.display_path, line=1, col=0,
            message=("import cycle among modules: "
                     + " -> ".join(component + [head])),
            symbol="cycle:" + ",".join(component))
