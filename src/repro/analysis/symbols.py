"""Project symbol table: name resolution across every collected module.

The per-file rules (SL001-SL006) only ever look at one AST at a time;
the whole-program rule SL008 needs to answer questions like
"``HOOKS.active`` in ``cpu/core.py`` — which module-level object is
that?" and "which class does ``self.fill`` resolve to on this
``Component`` subclass?".  This module builds the table that answers
them:

* per module: top-level classes (with their methods and raw base
  names), top-level functions, module-level assignments, and the
  import alias map (``from ..engine.tracing import HOOKS`` binds the
  local name ``HOOKS`` to ``repro.engine.tracing.HOOKS``);
* across modules: :meth:`SymbolTable.resolve` follows an attribute
  chain through the alias map to the defining module, and
  :meth:`SymbolTable.resolve_method` walks a class's bases (project
  classes only, left-to-right depth-first — Python's MRO restricted to
  what static analysis can see) to the defining class.

Everything is derived from the ASTs already parsed by
:mod:`repro.analysis.modules`; nothing is imported or executed.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from .imports import resolve_import_from
from .modules import SourceModule


@dataclass(frozen=True)
class QualifiedRef:
    """A chain resolved to ``symbol`` in ``module``, plus trailing attrs.

    ``HOOKS.active.emit`` in ``cpu/core.py`` resolves to
    ``QualifiedRef(module="repro.engine.tracing", symbol="HOOKS",
    attrs=("active", "emit"))``.
    """

    module: str
    symbol: str
    attrs: Tuple[str, ...] = ()

    @property
    def dotted(self) -> str:
        return ".".join((self.module, self.symbol) + self.attrs)


@dataclass
class FunctionSymbol:
    """One function or method definition."""

    name: str
    qualname: str                  # "func" or "Class.method"
    module: str                    # dotted module name ("" outside packages)
    node: ast.AST                  # FunctionDef | AsyncFunctionDef
    lineno: int = 0

    def __post_init__(self) -> None:
        self.lineno = self.node.lineno


@dataclass
class ClassSymbol:
    """One top-level class: raw base names + its methods."""

    name: str
    module: str
    node: ast.ClassDef
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, FunctionSymbol] = field(default_factory=dict)
    owner: Optional["ModuleSymbols"] = field(default=None, repr=False)

    @property
    def lineno(self) -> int:
        return self.node.lineno


@dataclass
class GlobalVar:
    """One module-level assignment (``NAME = <expr>``)."""

    name: str
    module: str
    lineno: int
    value: Optional[ast.expr]      # None: annotation-only declaration


@dataclass
class ModuleSymbols:
    """Everything defined or imported at the top level of one module."""

    source: SourceModule
    imports: Dict[str, str] = field(default_factory=dict)
    classes: Dict[str, ClassSymbol] = field(default_factory=dict)
    functions: Dict[str, FunctionSymbol] = field(default_factory=dict)
    globals: Dict[str, GlobalVar] = field(default_factory=dict)

    @property
    def module(self) -> str:
        return self.source.module


def attribute_chain(node: ast.expr) -> List[str]:
    """``a.b.c`` -> ``["a", "b", "c"]``; ``[]`` when the base is not a Name."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return []
    parts.append(node.id)
    parts.reverse()
    return parts


def _collect_imports(module: SourceModule) -> Dict[str, str]:
    aliases: Dict[str, str] = {}
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    # ``import a.b.c`` binds ``a``; attribute chains
                    # starting at ``a`` resolve through the full path.
                    aliases.setdefault(alias.name.split(".")[0],
                                       alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            target = resolve_import_from(node, module.package)
            if target is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = \
                    f"{target}.{alias.name}"
    return aliases


def _collect_module(module: SourceModule) -> ModuleSymbols:
    symbols = ModuleSymbols(source=module,
                            imports=_collect_imports(module))
    for node in module.tree.body:
        if isinstance(node, ast.ClassDef):
            klass = ClassSymbol(name=node.name, module=module.module,
                                node=node, owner=symbols)
            for base in node.bases:
                chain = attribute_chain(base)
                if chain:
                    klass.bases.append(".".join(chain))
            for child in node.body:
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    klass.methods[child.name] = FunctionSymbol(
                        name=child.name,
                        qualname=f"{node.name}.{child.name}",
                        module=module.module, node=child)
            symbols.classes[node.name] = klass
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            symbols.functions[node.name] = FunctionSymbol(
                name=node.name, qualname=node.name,
                module=module.module, node=node)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    symbols.globals.setdefault(
                        target.id, GlobalVar(target.id, module.module,
                                             node.lineno, node.value))
        elif isinstance(node, ast.AnnAssign) and \
                isinstance(node.target, ast.Name):
            symbols.globals.setdefault(
                node.target.id, GlobalVar(node.target.id, module.module,
                                          node.lineno, node.value))
    return symbols


class SymbolTable:
    """All collected modules, indexed for cross-module resolution."""

    def __init__(self, modules: List[SourceModule]) -> None:
        self.by_path: Dict[str, ModuleSymbols] = {}
        self.by_name: Dict[str, ModuleSymbols] = {}
        for module in modules:
            symbols = _collect_module(module)
            self.by_path[module.display_path] = symbols
            if module.module and module.module not in self.by_name:
                self.by_name[module.module] = symbols

    def modules(self) -> Iterator[ModuleSymbols]:
        return iter(self.by_path.values())

    def module(self, name: str) -> Optional[ModuleSymbols]:
        return self.by_name.get(name)

    # -- resolution ----------------------------------------------------------

    def _split_dotted(self, dotted: Tuple[str, ...]) -> Optional[QualifiedRef]:
        """Longest known module prefix of *dotted*, rest = symbol + attrs."""
        for cut in range(len(dotted) - 1, 0, -1):
            prefix = ".".join(dotted[:cut])
            if prefix in self.by_name:
                return QualifiedRef(prefix, dotted[cut],
                                    tuple(dotted[cut + 1:]))
        # The whole chain may name a module (``import repro.engine``
        # then ``repro.engine`` used bare) — not a symbol reference.
        return None

    def resolve(self, symbols: ModuleSymbols,
                chain: List[str]) -> Optional[QualifiedRef]:
        """Resolve an attribute chain seen in *symbols*' module.

        Returns the defining module + top-level symbol + remaining
        attribute path, or ``None`` for names this table cannot see
        (builtins, function locals, unknown packages).
        """
        if not chain:
            return None
        head = chain[0]
        if head in symbols.imports:
            dotted = tuple(symbols.imports[head].split(".")) \
                + tuple(chain[1:])
            ref = self._split_dotted(dotted)
            if ref is not None:
                return ref
            return None
        if (head in symbols.classes or head in symbols.functions
                or head in symbols.globals):
            return QualifiedRef(symbols.module, head, tuple(chain[1:]))
        return None

    def lookup_class(self, ref: QualifiedRef) -> Optional[ClassSymbol]:
        owner = self.by_name.get(ref.module)
        if owner is None:
            return None
        return owner.classes.get(ref.symbol)

    def lookup_function(self, ref: QualifiedRef) -> Optional[FunctionSymbol]:
        owner = self.by_name.get(ref.module)
        if owner is None:
            return None
        return owner.functions.get(ref.symbol)

    def lookup_global(self, ref: QualifiedRef) -> Optional[GlobalVar]:
        owner = self.by_name.get(ref.module)
        if owner is None:
            return None
        return owner.globals.get(ref.symbol)

    # -- method resolution ---------------------------------------------------

    def base_classes(self, klass: ClassSymbol) -> List[ClassSymbol]:
        """*klass*'s direct project-visible base classes."""
        owner = klass.owner or self.by_name.get(klass.module)
        bases: List[ClassSymbol] = []
        if owner is None:
            return bases
        for raw in klass.bases:
            ref = self.resolve(owner, raw.split("."))
            if ref is not None and not ref.attrs:
                resolved = self.lookup_class(ref)
                if resolved is not None:
                    bases.append(resolved)
        return bases

    def mro(self, klass: ClassSymbol) -> List[ClassSymbol]:
        """Left-to-right depth-first linearisation over project classes."""
        order: List[ClassSymbol] = []
        seen = set()
        stack = [klass]
        while stack:
            current = stack.pop(0)
            key = (current.module, current.name)
            if key in seen:
                continue
            seen.add(key)
            order.append(current)
            stack = self.base_classes(current) + stack
        return order

    def resolve_method(self, klass: ClassSymbol,
                       method: str) -> Optional[FunctionSymbol]:
        """The defining :class:`FunctionSymbol` of ``klass.method``."""
        for ancestor in self.mro(klass):
            if method in ancestor.methods:
                return ancestor.methods[method]
        return None

    def find_class_of_method(self, symbols: ModuleSymbols,
                             node: ast.AST) -> Optional[ClassSymbol]:
        """The top-level class whose body (transitively) holds *node*."""
        for klass in symbols.classes.values():
            for candidate in ast.walk(klass.node):
                if candidate is node:
                    return klass
        return None
