"""``simlint --explain SLxxx``: the rationale and a worked fix per rule.

Every rule in the registry must have an entry here (a test enforces
it); the text is what a contributor sees when a finding confuses them,
so it answers *why the rule exists in this simulator* and shows a
minimal before/after, not just a restatement of the message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class Explanation:
    """Long-form documentation of one rule."""

    code: str
    rationale: str       # why the rule exists in this codebase
    fix: str             # a minimal before/after example

    def format(self, summary: str) -> str:
        return (f"{self.code}: {summary}\n\n{self.rationale.strip()}\n\n"
                f"Fix:\n{self.fix.strip()}\n")


EXPLANATIONS: Dict[str, Explanation] = {}


def _explain(code: str, rationale: str, fix: str) -> None:
    EXPLANATIONS[code] = Explanation(code, rationale, fix)


_explain(
    "SL001",
    """
Every experiment must be byte-for-byte reproducible from its manifest
(run name + rng_seed + config).  Wall-clock reads and the shared
module-level RNG both smuggle in state the manifest cannot capture:
time.time() differs per run, and random.random() depends on whatever
drew from the global stream earlier in the process.  All randomness
flows from repro.engine.rng.derive_rng, rooted at SystemConfig.rng_seed;
all timing flows from SimClock cycles.
""",
    """
    # before
    delay = random.randrange(4)
    stamp = time.time()
    # after
    rng = derive_rng(None, seed, stream=3)
    delay = rng.randrange(4)
    stamp = clock.now()            # cycles, not seconds
""")

_explain(
    "SL002",
    """
Table 2 of the paper is the timing model; SystemConfig is its single
in-repo owner.  A latency literal buried in a component (miss_latency=30
as a default argument) silently forks the model: sweeps change the
config but not the literal, and results stop corresponding to any
config that was actually recorded in the manifest.  The engine and
repro.config are exempt — they define what a cycle is.
""",
    """
    # before
    def __init__(self, miss_latency: int = 30): ...
    # after: route through Table 2
    def __init__(self, config: SystemConfig):
        self.miss_latency = config.dram_access_latency
""")

_explain(
    "SL003",
    """
Counters kept as bare self attributes (self.hits += 1) are invisible to
the StatsRegistry, so they vanish from to_dict()/flat_paths(), the
profiler and results/*.json.  Any Component counter that is ever
incremented must live in a stats dataclass registered with
own_block() (the component's own counters) or register_block() (those
of a non-component it holds).
""",
    """
    # before
    self.hits = 0 ... self.hits += 1
    # after
    @dataclass
    class TLBStats:
        hits: int = 0
    self.stats = TLBStats()
    self.stats_scope.own_block(self.stats)
    ... self.stats.hits += 1
""")

_explain(
    "SL004",
    """
The layer DAG (engine -> {mem, core, cpu, osmodel, obs} -> techniques
-> {eval, workloads, sparse, robust}) is what keeps the kernel
importable without dragging in experiment code, and what lets the
analysis and obs layers reason about the machine without cycles.  An
upward import-time import (engine importing techniques, say) makes the
import order load-bearing and eventually circular.  Runtime-only
imports inside functions are exempt — the rule checks import time.
""",
    """
    # before (in repro/engine/foo.py)
    from ..techniques.dedup import DedupController
    # after: invert the dependency — techniques call into the engine,
    # or the shared type moves down into the engine/core layer.
""")

_explain(
    "SL006",
    """
Hot-path objects (per-access records, per-line metadata) are allocated
millions of times per run; without __slots__ each instance also carries
a dict, which dominates simulator memory at Figure-8 scales.  A module
opts in with a '# simlint: hot-path' comment in its first lines; every
top-level class there must then declare __slots__.  Dataclasses,
Component subclasses and exceptions are exempt (they need the instance
dict).
""",
    """
    # before (in a '# simlint: hot-path' module)
    class LineState:
        def __init__(self): self.dirty = False
    # after
    class LineState:
        __slots__ = ("dirty",)
        def __init__(self): self.dirty = False
""")
