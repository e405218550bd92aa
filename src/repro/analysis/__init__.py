"""``repro.analysis`` — *simlint*, the simulator's architectural linter.

The engine contract introduced with :mod:`repro.engine` (one stats
tree, one clock, Table 2 owned by
:class:`repro.config.SystemConfig`) only stays true if it is
machine-checked.  This package is a small AST/import-graph linter with
simulator-specific rules:

* **SL001 determinism** — no wall-clock reads (``time.time()``,
  ``datetime.now()``) and no module-level ``random.*`` calls in
  simulation code; randomness must flow through an injected, seeded
  ``random.Random``.
* **SL002 config-owned latencies** — integer latency/cycle literals
  belong in ``repro/config.py`` (Table 2) or ``repro/engine/``; anywhere
  else they silently fork the timing model.
* **SL003 stats discipline** — components under a
  :class:`~repro.engine.component.Component` stats scope may not grow
  ad-hoc ``self.x += 1`` counters that never reach the StatsRegistry.
* **SL004 layering** — the layer DAG ``engine -> {mem, core, cpu,
  osmodel} -> techniques -> {eval, workloads, sparse}`` admits no upward
  *import-time* imports and no module cycles.
* **SL006 hot-path memory** — classes in ``# simlint: hot-path``
  modules declare ``__slots__``.

Run it with ``python -m repro.analysis src benchmarks examples`` (or the
``simlint`` console script).  ``--explain SLxxx`` prints a rule's
rationale and a worked fix; ``--format json`` emits the findings as
JSON.  Escape hatches: a per-line
``# simlint: disable=SLxxx`` pragma, and a checked-in baseline file for
grandfathered findings (``simlint.baseline.json``).

The package is deliberately self-contained (stdlib only, no imports
from the simulator), so it can lint the tree it lives in without
executing any of it.
"""

from .findings import Baseline, Finding
from .modules import SourceModule, collect_modules
from .imports import LAYER_RANKS, build_import_graph
from .explain import EXPLANATIONS
from .rules import ALL_CODES, RULES, RuleSpec, Project
from .cli import lint_paths, main

__all__ = [
    "ALL_CODES", "Baseline", "EXPLANATIONS", "Finding", "LAYER_RANKS",
    "Project", "RULES", "RuleSpec", "SourceModule", "build_import_graph",
    "collect_modules", "lint_paths", "main",
]
