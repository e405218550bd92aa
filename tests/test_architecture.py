"""Architecture checks: six AST rules over every ``.py`` file in ``src/``,
``benchmarks/`` and ``examples/``.  DESIGN.md ("Architectural rules") gives
each rule's reason.  ``# simlint: disable=SLxxx`` suppresses a rule on its
line; a pragma that suppresses nothing fails.  Each check has one violating
input below, and the real trees are the clean case."""

import ast
import graphlib
import importlib.util
import re
import textwrap
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Set

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SOURCE_DIRS = ("src", "benchmarks", "examples")
PRAGMA = re.compile(r"#\s*simlint\s*:\s*disable\s*=\s*([\w,\s]+)")
Finding = NamedTuple("Finding", [("code", str), ("path", str), ("line", int),
                                 ("message", str)])


class Module(NamedTuple):
    path: str                      # repo-relative, forward slashes
    name: str                      # dotted module name
    package: str                   # what relative imports resolve against
    tree: ast.Module
    marker: Optional[int]          # line of its hot-path marker, if any;
                                   # only the first five lines opt in
    disabled: Dict[int, Set[str]]  # line -> codes its pragma disables


def parse_module(source: str, name: str, path: str,
                 is_package: bool = False) -> Module:
    lines = source.splitlines()
    disabled = {number: set(re.findall(r"SL\d+", match.group(1).upper()))
                for number, match in enumerate(map(PRAGMA.search, lines), 1)
                if match}
    return Module(path, name, name if is_package else name.rpartition(".")[0],
                  ast.parse(source, path),
                  next((number for number, line in enumerate(lines, 1)
                        if "# simlint: hot-path" in line), None),
                  disabled)


def collect() -> List[Module]:
    modules = []
    for file in (f for d in SOURCE_DIRS
                 for f in sorted((REPO_ROOT / d).rglob("*.py"))):
        # The dotted name walks up through ``__init__.py`` directories.
        parts = [] if file.name == "__init__.py" else [file.stem]
        parent = file.parent
        while (parent / "__init__.py").is_file():
            parts.insert(0, parent.name)
            parent = parent.parent
        modules.append(parse_module(
            file.read_text(), ".".join(parts),
            file.relative_to(REPO_ROOT).as_posix(),
            file.name == "__init__.py"))
    return modules


def unsuppressed(modules: List[Module],
                 findings: Iterable[Finding]) -> List[Finding]:
    disabled = {module.path: module.disabled for module in modules}
    return [f for f in findings
            if f.code not in disabled[f.path].get(f.line, ())]


def unused_pragmas(modules: List[Module],
                   findings: Iterable[Finding]) -> List[str]:
    """``path:line: SLxxx`` for each pragma code that suppresses nothing."""
    hit = {(f.path, f.line, f.code) for f in findings}
    return [f"{module.path}:{line}: {code}"
            for module in modules
            for line, codes in sorted(module.disabled.items())
            for code in sorted(codes) if (module.path, line, code) not in hit]


def _attribute_chain(node: ast.AST) -> List[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return parts[::-1]


def _int_literal(node: Optional[ast.AST]) -> Optional[int]:
    is_int = isinstance(node, ast.Constant) and type(node.value) is int
    return node.value if is_int else None


def _base_names(node: ast.ClassDef) -> Set[str]:
    return {chain[-1] for chain in map(_attribute_chain, node.bases) if chain}


def _import_time_nodes(node: ast.AST) -> Iterator[ast.AST]:
    """Nodes evaluated on import: function bodies are skipped (not their
    defaults and decorators), and ``if TYPE_CHECKING:`` bodies too."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda)):
            for expr in (child.args.defaults + child.args.kw_defaults
                         + getattr(child, "decorator_list", [])):
                yield from ast.walk(expr) if expr else ()
        elif (isinstance(child, ast.If)
              and _attribute_chain(child.test)[-1:] == ["TYPE_CHECKING"]):
            yield from _import_time_nodes(ast.Module(child.orelse, []))
        else:
            yield child
            yield from _import_time_nodes(child)


def component_classes(modules: List[Module]) -> Set[str]:
    """Names of ``Component`` subclasses, transitively, project-wide."""
    bases: Dict[str, Set[str]] = {}
    for module in modules:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                bases.setdefault(node.name, set()).update(_base_names(node))
    known, frontier = set(), {"Component"}
    while frontier:
        known |= frontier
        frontier = {name for name, parents in bases.items()
                    if name not in known and parents & known}
    return known - {"Component"}


# -- SL001 determinism: no wall-clock read, no call on the shared RNG --------

WALL_CLOCK = {
    "time": {"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
             "perf_counter_ns", "process_time", "process_time_ns",
             "thread_time", "thread_time_ns", "gmtime", "localtime", "clock"},
    "datetime": {"now", "utcnow", "today"},
    "date": {"today"},
}
RNG_CONSTRUCTORS = {"Random", "SystemRandom", "getstate"}
NUMPY_RNG_CONSTRUCTORS = {"RandomState", "default_rng", "Generator",
                          "SeedSequence"}


def check_determinism(modules: List[Module]) -> Iterator[Finding]:
    for module in modules:
        # "from random import randrange" names the shared RNG too.
        bare_rng = {alias.asname or alias.name
                    for node in ast.walk(module.tree)
                    if isinstance(node, ast.ImportFrom)
                    and node.module == "random" for alias in node.names
                    if alias.name not in RNG_CONSTRUCTORS}
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _attribute_chain(node.func)
            base, attr = (["", ""] + chain)[-2:]
            if chain[-3:-1] in (["np", "random"], ["numpy", "random"]):
                shared_rng = attr not in NUMPY_RNG_CONSTRUCTORS
            else:
                shared_rng = (base == "random"
                              and attr not in RNG_CONSTRUCTORS) \
                    or (len(chain) == 1 and attr in bare_rng)
            if shared_rng or attr in WALL_CLOCK.get(base, ()):
                kind = "module-level RNG" if shared_rng else "wall-clock"
                yield Finding("SL001", module.path, node.lineno,
                              f"{kind} call {'.'.join(chain)}()")


# -- SL002 config-owned latencies: literals, import-time DEFAULT_CONFIG reads

LATENCY_NAME = re.compile(r"(?:^|_)(?:lat|latency|latencies|cycles?)(?:$|_)",
                          re.IGNORECASE)
LITERAL_EXEMPT = re.compile(r"^repro\.(config$|engine(\.|$))")


def check_latency_literals(modules: List[Module]) -> Iterator[Finding]:
    def named_values(node: ast.AST) -> Iterator[tuple]:
        """``(name, value, anchor)`` for each value bound to a name."""
        if isinstance(node, ast.arguments):
            for arg, value in list(zip(
                    reversed(node.posonlyargs + node.args),
                    reversed(node.defaults))) + list(zip(node.kwonlyargs,
                                                         node.kw_defaults)):
                yield arg.arg, value, value
        elif isinstance(node, ast.Call):
            yield from ((k.arg or "", k.value, k.value) for k in node.keywords)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            for target in getattr(node, "targets", [getattr(node, "target",
                                                            None)]):
                yield "".join(_attribute_chain(target)[-1:]), node.value, node

    for module in modules:
        if module.name != "repro.config":
            for node in _import_time_nodes(module.tree):
                if isinstance(node, ast.Attribute) \
                        and _attribute_chain(node.value) == ["DEFAULT_CONFIG"]:
                    yield Finding("SL002", module.path, node.lineno,
                                  f"import-time DEFAULT_CONFIG.{node.attr}")
        if LITERAL_EXEMPT.match(module.name):
            continue
        for node in ast.walk(module.tree):
            for name, value, anchor in named_values(node):
                literal = _int_literal(value)
                if literal and LATENCY_NAME.search(name):
                    yield Finding("SL002", module.path, anchor.lineno,
                                  f"latency literal {name}={literal}")


# -- SL003 stats discipline: no ad-hoc counter on a Component ----------------

def check_stats_discipline(modules: List[Module]) -> Iterator[Finding]:
    def self_attr(node: ast.AST) -> Optional[str]:
        chain = _attribute_chain(node)
        return chain[1] if len(chain) == 2 and chain[0] == "self" else None

    def registers(node: ast.AST) -> bool:
        return isinstance(node, ast.Call) and _attribute_chain(
            node.func)[-1:] in (["register_block"], ["own_block"])

    components = component_classes(modules)
    for module in modules:
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.ClassDef)
                    and node.name in components):
                continue
            # Counters start as ``self.x = <int>`` or a ``x: int = 0`` field.
            initialised = {child.target.id for child in node.body
                           if isinstance(child, ast.AnnAssign)
                           and isinstance(child.target, ast.Name)
                           and _int_literal(child.value) is not None}
            registered: Set[object] = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Assign):
                    for attr in filter(None, map(self_attr, sub.targets)):
                        if _int_literal(sub.value) is not None:
                            initialised.add(attr)
                        elif registers(sub.value):
                            registered.add(attr)
                elif registers(sub):
                    for arg in sub.args + [k.value for k in sub.keywords]:
                        registered.add(arg.value if isinstance(
                            arg, ast.Constant) else self_attr(arg))
            unregistered = initialised - registered
            for sub in ast.walk(node):
                attr = isinstance(sub, ast.AugAssign) and self_attr(sub.target)
                if attr in unregistered and attr[0] != "_":
                    yield Finding("SL003", module.path, sub.lineno,
                                  f"unregistered counter {node.name}.{attr}")


# -- SL004 layering: no upward import-time import, no import cycle -----------

#: Rank of each ``repro.<layer>`` package, lowest at the bottom.  Other
#: modules (``repro.__main__``, benchmarks, examples) sit above the stack.
LAYER_RANKS = {
    "config": 0, "engine": 0,
    "mem": 1, "core": 1, "cpu": 1, "osmodel": 1, "obs": 1,
    "techniques": 2,
    "eval": 3, "workloads": 3, "sparse": 3, "robust": 3,
}


def check_layering(modules: List[Module]) -> Iterator[Finding]:
    def rank_of(name: str) -> Optional[int]:
        parts = name.split(".") + [""]
        return LAYER_RANKS.get(parts[1]) if parts[0] == "repro" else None

    by_name = {module.name: module for module in modules if module.name}
    graph: Dict[str, Set[str]] = {name: set() for name in by_name}
    for module in modules:
        rank = rank_of(module.name)
        for node in _import_time_nodes(module.tree):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = importlib.util.resolve_name(
                    "." * node.level + (node.module or ""), module.package)
                # The imported names may be submodules.
                targets = [base] + [f"{base}.{a.name}" for a in node.names]
            else:
                continue
            graph.get(module.name, set()).update(
                t for t in targets if t in by_name and t != module.name)
            upward = [t for t in targets
                      if rank is not None and (rank_of(t) or 0) > rank]
            if upward:
                yield Finding("SL004", module.path, node.lineno,
                              f"upward import of {upward[0]}")
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as error:
        cycle = error.args[1]
        yield Finding("SL004", by_name[cycle[0]].path, 1,
                      "import cycle: " + " -> ".join(cycle))


# -- SL006 hot-path memory: __slots__ on each class of a hot-path module ---

def check_hot_path_slots(modules: List[Module]) -> Iterator[Finding]:
    exempt = component_classes(modules) | {"Component"}
    for module in filter(lambda module: module.marker, modules):
        if module.marker > 5:
            # A marker further down opts nothing in: report it.
            yield Finding("SL006", module.path, module.marker,
                          "hot-path marker past the first five lines")
            continue
        for node in module.tree.body:
            if not isinstance(node, ast.ClassDef) or node.name in exempt:
                continue
            slots = any(_attribute_chain(target) == ["__slots__"]
                        for child in node.body
                        for target in getattr(child, "targets", [getattr(
                            child, "target", None)]))
            dataclass_ = any(_attribute_chain(getattr(d, "func", d))[-1:]
                             == ["dataclass"] for d in node.decorator_list)
            exception = any(n.endswith(("Error", "Exception", "Fault",
                                        "Warning")) for n in _base_names(node))
            if not (slots or dataclass_ or exception):
                yield Finding("SL006", module.path, node.lineno,
                              f"{node.name} has no __slots__")


# -- SL007 program callers: every definition in src/ has a use outside tests

def check_program_callers(modules: List[Module]) -> Iterator[Finding]:
    """Flag a ``def`` in ``repro`` whose name no scanned module references:
    no name, no attribute and no identifier string (``getattr`` tables,
    ``__all__``).  ``tests/`` is not scanned, so a definition that only
    tests call is flagged.  Dunders are called by the language."""
    used: Set[str] = set()
    for module in modules:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) \
                    and isinstance(node.value, str) \
                    and node.value.isidentifier():
                used.add(node.value)
    for module in modules:
        if module.name.partition(".")[0] != "repro":
            continue
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.name not in used \
                    and not (node.name.startswith("__")
                             and node.name.endswith("__")):
                yield Finding("SL007", module.path, node.lineno,
                              f"{node.name} has no program caller")


CHECKS = {
    "SL001": check_determinism,
    "SL002": check_latency_literals,
    "SL003": check_stats_discipline,
    "SL004": check_layering,
    "SL006": check_hot_path_slots,
    "SL007": check_program_callers,
}


@pytest.fixture(scope="module")
def tree() -> tuple:
    """The real modules (the clean case), and each check's findings on
    them before pragmas apply."""
    modules = collect()
    return modules, {code: list(check(modules))
                     for code, check in CHECKS.items()}


@pytest.mark.parametrize("code", sorted(CHECKS))
def test_tree_passes(tree, code):
    modules, findings = tree
    assert unsuppressed(modules, findings[code]) == []


def test_every_pragma_suppresses_a_finding(tree):
    modules, findings = tree
    assert unused_pragmas(modules, sum(findings.values(), [])) == []


# -- one violating input per check: it flags each line ending in its code ---

VIOLATIONS = {
    "SL001": {"repro.mem.sample": '''
        import random, time
        from datetime import datetime
        from random import randrange
        import numpy as np
        def sample(population, rng: random.Random):
            started = time.time()  # simlint: disable=SL001,SL002
            stamp = datetime.now()                # SL001
            day = time.gmtime()                   # SL001
            cpu = time.thread_time()              # SL001
            cpu_ns = time.process_time_ns()       # SL001
            pick = random.choice(population)      # SL001
            extra = randrange(10)                 # SL001
            noise = np.random.rand(3)             # SL001
            own, gen = random.Random(7), np.random.default_rng(7)
            return rng.choice(population), own.random(), gen.random()
    '''},
    "SL002": {"repro.mem.sample": '''
        from repro.config import DEFAULT_CONFIG
        PROBE_LATENCY = 42                        # SL002
        TAG_LATENCY = DEFAULT_CONFIG.l1_tag_latency   # SL002
        class Probe:
            cycles = DEFAULT_CONFIG.l2_tag_latency    # SL002
        def lookup(entry, miss=DEFAULT_CONFIG.tlb_miss_latency,  # SL002
                   config=DEFAULT_CONFIG, *, size=4096, lat=9):  # SL002
            latency = 0
            total_cycles = 3                      # SL002
            probe(entry, tag_latency=2)           # SL002
            return miss + latency + size + DEFAULT_CONFIG.l1_tag_latency
    ''', "repro.config": "PROBE_LATENCY = 42\nT = DEFAULT_CONFIG.l1\n"},
    "SL003": {"repro.mem.sample": '''
        from repro.engine.component import Component
        class Cache(Component):
            pass
        class LeakyCache(Cache):
            def __init__(self):
                self.hits = self.misses = self.fills = self._probes = 0
                self.stats_scope.own_block(self.misses)
                self.fills = self.stats_scope.register_block("fills", 0)
            def access(self, tag):
                self._probes += 1
                self.misses += 1
                self.fills += 1
                self.hits += 1                    # SL003
    '''},
    "SL004": {
        "repro.engine.widget": '''
            from typing import TYPE_CHECKING
            from repro.techniques.policy import PolicyKnob   # SL004
            if TYPE_CHECKING:
                from repro.eval import harness
            def deferred():
                from repro.eval import harness
        ''',
        "repro.mem.alpha": "from repro.mem.beta import helper  # SL004\n",
        "repro.mem.beta": "from . import alpha\nhelper = alpha\n",
        "repro.techniques.policy": "PolicyKnob = object\n",
        "repro.eval.harness": "from ..techniques import policy\n",
    },
    "SL006": {"repro.mem.sample": '''
        # simlint: hot-path
        from dataclasses import dataclass
        from repro.engine.component import Component
        @dataclass
        class StatsBlock:
            hits: int = 0
        class BareEntry:                          # SL006
            pass
        class SlottedEntry:
            __slots__ = ("tag",)
        class HotCache(Component):
            pass
        class HotPathError(RuntimeError):
            pass
    ''', "repro.mem.relaxed": "class RelaxedEntry:\n    pass\n",
        "repro.mem.late": '''
        """A module whose marker sits after its docstring."""
        from dataclasses import dataclass
        class LateEntry:
            pass
        # simlint: hot-path                       # SL006
    '''},
    "SL007": {"repro.mem.sample": '''
        __all__ = ["exported"]
        class Cache:
            def __init__(self):
                self.probe = self.lookup
            def lookup(self, tag):
                return getattr(self, "resolve")(tag)
            def resolve(self, tag):
                return tag
            def peek(self, tag):                  # SL007
                return tag
            def oracle(self):  # simlint: disable=SL007 tests read it
                return []
        def exported():
            return Cache().lookup(0)
        def unused():                             # SL007
            return Cache
    ''', "examples.tool": "def main():\n    pass\n"},
}


def inline(source: str, name: str = "repro.mem.sample") -> Module:
    return parse_module(textwrap.dedent(source), name,
                        name.replace(".", "/") + ".py")


@pytest.mark.parametrize("code", sorted(CHECKS))
def test_check_flags_its_violating_input(code):
    modules = [inline(source, name)
               for name, source in VIOLATIONS[code].items()]
    expected = sorted((module.path, number) for module, source
                      in zip(modules, VIOLATIONS[code].values())
                      for number, text in enumerate(
                          textwrap.dedent(source).splitlines(), 1)
                      if text.endswith("# " + code))
    found = unsuppressed(modules, CHECKS[code](modules))
    assert sorted((f.path, f.line) for f in found) == expected


def test_a_pragma_that_suppresses_nothing_is_reported():
    module = inline(VIOLATIONS["SL001"]["repro.mem.sample"])
    assert unused_pragmas([module], check_determinism([module])) \
        == [f"{module.path}:7: SL002"]
