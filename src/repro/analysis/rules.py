"""The per-module simlint rules and their registry.

Each rule is a generator ``rule(module, project) -> Iterator[Finding]``
registered under its ``SLxxx`` code.  ``project`` is the
:class:`Project` built from every collected module, which is what lets
class-level rules (SL003/SL006) see ``Component`` subclasses whose base
class lives in another file.

SL004 (layering) is graph-global rather than per-module and lives in
:mod:`repro.analysis.imports`.  It is registered here too, so
``--select`` and ``--list-rules`` treat every rule uniformly.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from .findings import Finding
from .imports import check_layering
from .modules import SourceModule


@dataclass
class Project:
    """Cross-module context shared by every rule invocation."""

    modules: List[SourceModule]
    _component_classes: Optional[Set[str]] = field(default=None, repr=False)

    @property
    def component_classes(self) -> Set[str]:
        """Names of ``Component`` subclasses, transitively, project-wide."""
        if self._component_classes is None:
            bases: Dict[str, Set[str]] = {}
            for module in self.modules:
                for node in ast.walk(module.tree):
                    if isinstance(node, ast.ClassDef):
                        names = set()
                        for base in node.bases:
                            if isinstance(base, ast.Name):
                                names.add(base.id)
                            elif isinstance(base, ast.Attribute):
                                names.add(base.attr)
                        bases.setdefault(node.name, set()).update(names)
            known: Set[str] = set()
            frontier = {"Component"}
            while frontier:
                known |= frontier
                frontier = {name for name, parents in bases.items()
                            if name not in known and parents & known}
            known.discard("Component")
            self._component_classes = known
        return self._component_classes


RuleFunc = Callable[[SourceModule, Project], Iterator[Finding]]


@dataclass(frozen=True)
class RuleSpec:
    code: str
    summary: str
    check: Optional[RuleFunc]   # None: graph-global, handled separately


RULES: Dict[str, RuleSpec] = {}


def rule(code: str, summary: str) -> Callable[[RuleFunc], RuleFunc]:
    def register(func: RuleFunc) -> RuleFunc:
        RULES[code] = RuleSpec(code, summary, func)
        return func
    return register


def _enclosing_symbols(tree: ast.Module) -> Dict[ast.AST, str]:
    """Map every node to its enclosing ``Class.method`` qualname."""
    symbols: Dict[ast.AST, str] = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = f"{prefix}.{child.name}" if prefix else child.name
            symbols[child] = name
            visit(child, name)
    visit(tree, "")
    return symbols


def _walk_with_symbols(tree: ast.Module) -> Iterator[Tuple[ast.AST, str]]:
    symbols = _enclosing_symbols(tree)
    for node in ast.walk(tree):
        yield node, symbols.get(node, "")


# ---------------------------------------------------------------------------
# SL001 — determinism
# ---------------------------------------------------------------------------

#: Wall-clock calls: {base name: forbidden attributes}.
_WALL_CLOCK = {
    "time": {"time", "time_ns", "monotonic", "monotonic_ns",
             "perf_counter", "perf_counter_ns", "clock"},
    "datetime": {"now", "utcnow", "today"},
    "date": {"today"},
}

#: ``random.<attr>()`` calls that hit the shared module-level RNG.
_RNG_CONSTRUCTORS = {"Random", "SystemRandom", "getstate"}
_NUMPY_RNG_CONSTRUCTORS = {"RandomState", "default_rng", "Generator",
                           "SeedSequence"}


def _attribute_chain(node: ast.expr) -> List[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    parts.reverse()
    return parts


@rule("SL001", "determinism: no wall-clock reads, no module-level RNG")
def check_determinism(module: SourceModule,
                      project: Project) -> Iterator[Finding]:
    # Names imported straight off the random module ("from random import
    # randrange") count as module-level RNG too.
    bare_rng: Set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ImportFrom) and node.module == "random":
            for alias in node.names:
                if alias.name not in _RNG_CONSTRUCTORS:
                    bare_rng.add(alias.asname or alias.name)
    for node, symbol in _walk_with_symbols(module.tree):
        if not isinstance(node, ast.Call):
            continue
        chain = _attribute_chain(node.func)
        if not chain:
            continue
        dotted = ".".join(chain)
        finding = None
        if len(chain) >= 2:
            base, attr = chain[-2], chain[-1]
            if (len(chain) >= 3 and chain[-3] in ("np", "numpy")
                    and base == "random"):
                if attr not in _NUMPY_RNG_CONSTRUCTORS:
                    finding = (f"module-level RNG call {dotted}() uses "
                               f"numpy's shared global state; inject a "
                               f"Generator/RandomState")
            elif base in _WALL_CLOCK and attr in _WALL_CLOCK[base]:
                finding = (f"wall-clock call {dotted}() breaks run-to-run "
                           f"reproducibility; derive timing from SimClock")
            elif base == "random" and attr not in _RNG_CONSTRUCTORS:
                finding = (f"module-level RNG call {dotted}() uses shared "
                           f"global state; inject a seeded random.Random")
        if finding is None and len(chain) == 1 and chain[0] in bare_rng:
            finding = (f"module-level RNG call {chain[0]}() (imported from "
                       f"random) uses shared global state; inject a seeded "
                       f"random.Random")
        if finding:
            yield Finding(code="SL001", path=module.display_path,
                          line=node.lineno, col=node.col_offset,
                          message=finding,
                          symbol=f"{symbol}:{dotted}")


# ---------------------------------------------------------------------------
# SL002 — config-owned latencies
# ---------------------------------------------------------------------------

#: Identifier fragments that mark a value as a timing parameter.
_LATENCY_NAME = re.compile(r"(?:^|_)(?:lat|latency|latencies|cycles?)(?:$|_)",
                           re.IGNORECASE)

#: Modules allowed to hold latency literals: Table 2 itself and the
#: engine (whose clock/port machinery defines what a cycle *is*).
_SL002_EXEMPT = re.compile(r"^repro\.(config$|engine(\.|$))")


def _int_literal(node: ast.expr) -> Optional[int]:
    if (isinstance(node, ast.Constant) and type(node.value) is int):
        return node.value
    return None


def _terminal_name(target: ast.expr) -> Optional[str]:
    if isinstance(target, ast.Name):
        return target.id
    if isinstance(target, ast.Attribute):
        return target.attr
    return None


@rule("SL002", "config-owned latencies: timing literals live in "
               "SystemConfig or the engine")
def check_latency_literals(module: SourceModule,
                           project: Project) -> Iterator[Finding]:
    if _SL002_EXEMPT.match(module.module or ""):
        return
    for node, symbol in _walk_with_symbols(module.tree):
        sites: List[Tuple[str, ast.expr, ast.AST]] = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            for arg, default in zip(positional[len(positional)
                                               - len(args.defaults):],
                                    args.defaults):
                sites.append((arg.arg, default, default))
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    sites.append((arg.arg, default, default))
        elif isinstance(node, ast.Call):
            for keyword in node.keywords:
                if keyword.arg:
                    sites.append((keyword.arg, keyword.value, keyword.value))
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                name = _terminal_name(target)
                if name:
                    sites.append((name, node.value, node))
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            name = _terminal_name(node.target)
            if name and node.value is not None:
                sites.append((name, node.value, node))
        for name, value, anchor in sites:
            literal = _int_literal(value)
            if literal is None or literal == 0:
                continue
            if not _LATENCY_NAME.search(name):
                continue
            yield Finding(
                code="SL002", path=module.display_path,
                line=anchor.lineno, col=anchor.col_offset,
                message=(f"latency literal {name}={literal}; route it "
                         f"through a SystemConfig field so Table 2 stays "
                         f"the single owner of timing parameters"),
                symbol=f"{symbol}:{name}")


# ---------------------------------------------------------------------------
# SL003 — stats discipline
# ---------------------------------------------------------------------------

_REGISTRATION_CALLS = {"register_block", "own_block"}


def _self_attr(node: ast.expr) -> Optional[str]:
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


@rule("SL003", "stats discipline: Component counters must reach the "
               "StatsRegistry, not ad-hoc self attributes")
def check_stats_discipline(module: SourceModule,
                           project: Project) -> Iterator[Finding]:
    components = project.component_classes
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ClassDef) or node.name not in components:
            continue
        initialised: Dict[str, int] = {}   # attr -> line of "self.x = <int>"
        augmented: Dict[str, ast.AugAssign] = {}
        registered: Set[str] = set()
        for child in node.body:
            # Dataclass-style counter fields: ``hits: int = 0``.
            if (isinstance(child, ast.AnnAssign)
                    and isinstance(child.target, ast.Name)
                    and child.value is not None
                    and _int_literal(child.value) is not None):
                initialised.setdefault(child.target.id, child.lineno)
        for sub in ast.walk(node):
            if isinstance(sub, ast.Assign):
                for target in sub.targets:
                    attr = _self_attr(target)
                    if attr is None:
                        continue
                    if _int_literal(sub.value) is not None:
                        initialised.setdefault(attr, sub.lineno)
                    elif (isinstance(sub.value, ast.Call)
                          and isinstance(sub.value.func, ast.Attribute)
                          and sub.value.func.attr in _REGISTRATION_CALLS):
                        registered.add(attr)
            elif isinstance(sub, ast.AugAssign):
                attr = _self_attr(sub.target)
                if attr is not None:
                    augmented.setdefault(attr, sub)
            elif isinstance(sub, ast.Call):
                func = sub.func
                if (isinstance(func, ast.Attribute)
                        and func.attr in _REGISTRATION_CALLS):
                    for arg in list(sub.args) + [k.value for k in
                                                 sub.keywords]:
                        if (isinstance(arg, ast.Constant)
                                and isinstance(arg.value, str)):
                            registered.add(arg.value)
                        attr = _self_attr(arg)
                        if attr is not None:
                            registered.add(attr)
        for attr, aug in sorted(augmented.items()):
            if (attr.startswith("_") or attr not in initialised
                    or attr in registered):
                continue
            yield Finding(
                code="SL003", path=module.display_path,
                line=aug.lineno, col=aug.col_offset,
                message=(f"ad-hoc counter self.{attr} on Component "
                         f"{node.name!r} never reaches the StatsRegistry; "
                         f"count it in a stats dataclass registered with "
                         f"stats_scope.own_block()/register_block()"),
                symbol=f"{node.name}:{attr}")


# ---------------------------------------------------------------------------
# SL006 — hot-path memory discipline
# ---------------------------------------------------------------------------

#: Module-level marker comment opting a file into SL006.  It lives in the
#: file head (before the docstring ends) rather than in the AST, so the
#: rule sniffs the first few source lines.
_HOT_PATH_MARKER = re.compile(r"#\s*simlint:\s*hot-path\b")

#: How many leading lines may carry the marker.
_MARKER_WINDOW = 5

_EXCEPTION_BASES = {"Exception", "BaseException", "RuntimeError",
                    "ValueError", "TypeError", "KeyError", "OSError",
                    "ArithmeticError", "LookupError"}


def _module_is_hot_path(module: SourceModule) -> bool:
    try:
        with open(module.path, "r") as handle:
            for _ in range(_MARKER_WINDOW):
                line = handle.readline()
                if not line:
                    break
                if _HOT_PATH_MARKER.search(line):
                    return True
    except OSError:
        return False
    return False


def _base_names(node: ast.ClassDef) -> Set[str]:
    names: Set[str] = set()
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.add(base.id)
        elif isinstance(base, ast.Attribute):
            names.add(base.attr)
    return names


def _is_exception_class(node: ast.ClassDef) -> bool:
    return any(name in _EXCEPTION_BASES
               or name.endswith("Error") or name.endswith("Exception")
               or name.endswith("Fault") or name.endswith("Warning")
               for name in _base_names(node))


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) \
            else decorator
        chain = _attribute_chain(target)
        if chain and chain[-1] == "dataclass":
            return True
    return False


def _declares_slots(node: ast.ClassDef) -> bool:
    for child in node.body:
        if isinstance(child, ast.Assign):
            if any(isinstance(t, ast.Name) and t.id == "__slots__"
                   for t in child.targets):
                return True
        elif (isinstance(child, ast.AnnAssign)
              and isinstance(child.target, ast.Name)
              and child.target.id == "__slots__"):
            return True
    return False


@rule("SL006", "hot-path memory: classes in '# simlint: hot-path' modules "
               "declare __slots__")
def check_hot_path_slots(module: SourceModule,
                         project: Project) -> Iterator[Finding]:
    """Instance dicts on per-access objects dominate simulator memory.

    A module opts in with a ``# simlint: hot-path`` comment in its first
    few lines; every top-level class there must then declare
    ``__slots__``.  Exempt: dataclasses (Python 3.9 cannot combine the
    decorator with ``__slots__`` and field defaults, and the stats
    blocks' ``vars()``-based snapshots need the instance dict),
    ``Component`` subclasses (components rely on the instance
    dict), and exception classes.
    """
    if not _module_is_hot_path(module):
        return
    components = project.component_classes
    for node in module.tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        if node.name in components or node.name == "Component":
            continue
        if _is_dataclass(node) or _is_exception_class(node):
            continue
        if _declares_slots(node):
            continue
        yield Finding(
            code="SL006", path=module.display_path,
            line=node.lineno, col=node.col_offset,
            message=(f"class {node.name!r} in a hot-path module has no "
                     f"__slots__; per-access instances grow a dict each — "
                     f"declare __slots__ or exempt the module"),
            symbol=f"{node.name}:__slots__")


# SL004 is graph-global (it needs every module at once); the spec is
# registered here so rule listings and --select stay uniform.
RULES["SL004"] = RuleSpec(
    "SL004",
    "layering: engine -> {mem, core, cpu, osmodel, obs} -> techniques -> "
    "{eval, workloads, sparse}; no upward imports, no cycles",
    None)

check_layering_project = check_layering

ALL_CODES = tuple(sorted(RULES))
