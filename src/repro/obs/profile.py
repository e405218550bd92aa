"""Cycle-accounting profiler: where did the simulated cycles go?

The paper's evaluation argues in cycle destinations — overlay-on-write
wins because page copies leave the critical path (Sections 5.2-5.3),
and the mechanism's costs surface as TLB-fill latency and OMT walks
(Section 4, Table 1).  This module turns one run's statistics tree into
exactly that accounting: a :class:`ProfileNode` tree *mirroring the
stats scope hierarchy*, where every scope's counters are multiplied by
the Table 2 latencies that :class:`~repro.config.SystemConfig` owns
(DRAM row-hit/row-miss service, TLB lookups and fills, OMT walks,
coherence messages and shootdowns, cache lookups, writeback/copy
traffic, core compute vs window stalls).

Attribution is **post-hoc and first-order**: it reads only the exported
``{name, scalars, blocks, children}`` stats shape — so it works on a
live :class:`~repro.engine.stats.StatsRegistry` *and* on an
already-written ``results/*.json`` document — and it never touches
simulated state.  Overlapped latencies (MLP, pipelined row hits) mean
the attributed total is an upper bound on wall-clock-style exclusive
time; it is the paper's Table 1-style cost accounting, not a replacement
for the timing model.

Two collectors ride along:

* :class:`ProfileAccumulator` — an engine
  :class:`~repro.engine.tracing.CycleSampler` that folds the profile of
  every machine a harness builds (the fork suite builds one per
  benchmark x policy) into one merged tree, bound through the same
  root hook the metrics sampler uses;
* :class:`WallClockProfiler` — the *host-side* half: named
  ``time.perf_counter`` sections showing which simulator layers are
  slow in real time.  Wall-clock reads are confined to this class and
  carry explicit simlint SL001 pragmas (they measure the harness, never
  the simulation; the simulated timeline comes solely from SimClock).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..config import DEFAULT_CONFIG, SystemConfig
from ..engine import tracing
from ..engine.stats import StatsRegistry
from .manifest import RunManifest

Number = Union[int, float]


@dataclass
class ProfileNode:
    """One scope's attributed cycles, mirroring the stats tree."""

    name: str
    breakdown: Dict[str, float] = field(default_factory=dict)
    children: List["ProfileNode"] = field(default_factory=list)

    @property
    def own(self) -> float:
        """Cycles attributed directly to this scope."""
        return sum(self.breakdown.values())

    @property
    def total(self) -> float:
        """Cycles attributed to this scope and its whole subtree."""
        return self.own + sum(child.total for child in self.children)

    def child(self, name: str) -> Optional["ProfileNode"]:
        for node in self.children:
            if node.name == name:
                return node
        return None

    def merge(self, other: "ProfileNode") -> "ProfileNode":
        """Sum *other*'s attributed cycles into this tree (by name)."""
        for label, cycles in other.breakdown.items():
            self.breakdown[label] = self.breakdown.get(label, 0) + cycles
        for their_child in other.children:
            mine = self.child(their_child.name)
            if mine is None:
                self.children.append(their_child)
            else:
                mine.merge(their_child)
        return self

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "cycles": self.own,
            "total": self.total,
            "breakdown": dict(self.breakdown),
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "ProfileNode":
        return cls(name=doc["name"],
                   breakdown=dict(doc.get("breakdown", {})),
                   children=[cls.from_dict(child)
                             for child in doc.get("children", [])])


# ---------------------------------------------------------------------------
# Attribution rules — Table 2 latencies x the scope's counters
# ---------------------------------------------------------------------------

AttributionRule = Callable[[Dict[str, Number], SystemConfig],
                           Dict[str, float]]


def _dram_timings(config: SystemConfig) -> Tuple[int, int, int, int]:
    """(tCAS, tRCD, tRP, tBURST) in CPU cycles — mirrors mem/dram.py."""
    tck = config.cpu_cycles_per_tck
    return 7 * tck, 7 * tck, 7 * tck, 4 * tck


def _rule_dram(scalars: Dict[str, Number],
               config: SystemConfig) -> Dict[str, float]:
    t_cas, _, _, t_burst = _dram_timings(config)
    row_hits = scalars.get("row_hits", 0)
    busy = scalars.get("busy_cycles", 0)
    accesses = scalars.get("reads", 0) + scalars.get("writes", 0)
    hit_burst = row_hits * t_burst
    return {
        "row-hit service": hit_burst + row_hits * t_cas,
        # Activate/precharge occupancy (everything busy beyond the
        # pipelined hit bursts) plus the misses' own column access.
        "row-miss service": max(0, busy - hit_burst)
        + max(0, accesses - row_hits) * t_cas,
    }


def _rule_tlb(scalars: Dict[str, Number],
              config: SystemConfig) -> Dict[str, float]:
    return {
        "L1 lookups": scalars.get("l1_hits", 0) * config.l1_tlb_latency,
        "L2 lookups": scalars.get("l2_hits", 0) * config.l2_tlb_latency,
        "fills (page table + OMT)":
            scalars.get("misses", 0) * config.tlb_miss_latency,
        "shootdowns": scalars.get("shootdowns", 0)
        * config.tlb_shootdown_latency,
    }


def _rule_coherence(scalars: Dict[str, Number],
                    config: SystemConfig) -> Dict[str, float]:
    return {
        "overlaying read exclusive":
            scalars.get("overlaying_read_exclusive_messages", 0)
            * config.overlay_read_exclusive_latency,
        "shootdown broadcasts": scalars.get("shootdowns", 0)
        * config.tlb_shootdown_latency,
    }


def _cache_rule(level: str) -> AttributionRule:
    def rule(scalars: Dict[str, Number],
             config: SystemConfig) -> Dict[str, float]:
        tag = getattr(config, f"{level}_tag_latency")
        data = getattr(config, f"{level}_data_latency")
        return {
            "hits": scalars.get("hits", 0) * (tag + data),
            "miss tag checks": scalars.get("misses", 0) * tag,
        }
    return rule


def _rule_hierarchy(scalars: Dict[str, Number],
                    config: SystemConfig) -> Dict[str, float]:
    # These two scalars are *measured* latency sums, not counts.
    return {
        "miss resolution (controller)":
            scalars.get("resolve_miss_latency", 0),
        "writebacks (copy traffic)": scalars.get("writeback_latency", 0),
    }


def _rule_omt(scalars: Dict[str, Number],
              config: SystemConfig) -> Dict[str, float]:
    return {
        "OMT walks": scalars.get("walk_memory_accesses", 0)
        * config.table_walk_access_cycles,
    }


def _rule_oms(scalars: Dict[str, Number],
              config: SystemConfig) -> Dict[str, float]:
    _, _, _, t_burst = _dram_timings(config)
    return {
        "line transfers (copy traffic)":
            scalars.get("memory_line_transfers", 0) * t_burst,
    }


def _rule_core(scalars: Dict[str, Number],
               config: SystemConfig) -> Dict[str, float]:
    return {
        "issue (compute)": scalars.get("instructions", 0)
        / max(1, config.issue_width),
        "window stalls": scalars.get("window_stall_cycles", 0),
    }


#: ``(scope-name pattern, rule)`` pairs; first match wins.  Patterns are
#: matched with ``fnmatch`` against the scope (or adopted block) name.
SCOPE_RULES: List[Tuple[str, AttributionRule]] = [
    ("dram", _rule_dram),
    ("tlb*", _rule_tlb),
    ("coherence", _rule_coherence),
    ("l1", _cache_rule("l1")),
    ("l2", _cache_rule("l2")),
    ("l3", _cache_rule("l3")),
    ("hierarchy", _rule_hierarchy),
    ("omt_cache", _rule_omt),
    ("oms", _rule_oms),
    ("core*", _rule_core),
]


def _match_rule(name: str) -> Optional[AttributionRule]:
    for pattern, rule in SCOPE_RULES:
        if fnmatchcase(name, pattern):
            return rule
    return None


def _attribute(name: str, scalars: Dict[str, Number],
               config: SystemConfig) -> Dict[str, float]:
    rule = _match_rule(name)
    if rule is None:
        return {}
    return {label: cycles for label, cycles in rule(scalars, config).items()
            if cycles}


def profile_stats(stats, config: Optional[SystemConfig] = None) -> ProfileNode:
    """Attribute cycles to every scope of a stats tree.

    *stats* is a :class:`~repro.engine.stats.StatsRegistry`, anything
    with a ``stats_scope``, or the exported ``{name, scalars, blocks,
    children}`` dict (the ``stats`` member of a ``results/*.json``
    document).  *config* defaults to the stock Table 2 configuration.
    """
    config = config or DEFAULT_CONFIG
    scope = getattr(stats, "stats_scope", stats)
    if isinstance(scope, StatsRegistry):
        scope = scope.to_dict()
    if not isinstance(scope, dict):
        raise TypeError(f"cannot profile {type(stats).__name__}; pass a "
                        f"StatsRegistry, a component, or an exported "
                        f"stats dict")
    node = ProfileNode(scope.get("name", "stats"))
    node.breakdown = _attribute(node.name, scope.get("scalars", {}), config)
    # Adopted blocks (omt_cache, prefetcher, framework) profile as
    # pseudo-children so the tree mirrors the stats export shape.
    for block_name, fields in scope.get("blocks", {}).items():
        breakdown = _attribute(block_name, fields, config)
        if breakdown:
            node.children.append(ProfileNode(block_name, breakdown))
    for child in scope.get("children", []):
        node.children.append(profile_stats(child, config))
    return node


def config_from_manifest(manifest: Dict[str, Any]) -> SystemConfig:
    """Rebuild the run's :class:`SystemConfig` from its manifest."""
    from dataclasses import fields as dataclass_fields
    known = {spec.name for spec in dataclass_fields(SystemConfig)}
    values = {key: value for key, value in manifest.get("config", {}).items()
              if key in known}
    return SystemConfig(**values) if values else DEFAULT_CONFIG


def profile_run_document(doc: Dict[str, Any]) -> ProfileNode:
    """Profile an already-exported ``results/*.json`` document."""
    if doc.get("stats") is None:
        raise ValueError("run document carries no stats tree to profile")
    return profile_stats(doc["stats"],
                         config_from_manifest(doc.get("manifest", {})))


# ---------------------------------------------------------------------------
# Collectors
# ---------------------------------------------------------------------------

class ProfileAccumulator(tracing.CycleSampler):
    """Fold every machine a harness builds into one merged profile.

    Installed through the engine's sampler hook (share the slot with a
    :class:`~repro.obs.metrics.MetricsSampler` via
    :class:`~repro.engine.tracing.SamplerFanout`): each time a new
    machine root is built, the previous machine's final counters are
    attributed and merged; :meth:`finish` folds the last one.
    """

    def __init__(self, config: Optional[SystemConfig] = None,
                 root_name: str = "system"):
        self.config = config or DEFAULT_CONFIG
        self.root_name = root_name
        self.systems = 0
        self.profile: Optional[ProfileNode] = None
        self._registry: Optional[StatsRegistry] = None

    def _fold(self) -> None:
        if self._registry is None:
            return
        node = profile_stats(self._registry, self.config)
        self.profile = node if self.profile is None \
            else self.profile.merge(node)
        self._registry = None

    def on_root(self, component) -> None:
        if component.component_name != self.root_name:
            return
        self._fold()
        self._registry = component.stats_scope
        self.systems += 1

    def finish(self) -> Optional[ProfileNode]:
        """Fold the last bound machine and return the merged profile."""
        self._fold()
        return self.profile


class WallClockProfiler:
    """Named host wall-clock sections (the simulator-is-slow view).

    The only sanctioned home for ``time.perf_counter`` in the sim stack:
    sections measure *harness* layers (trace generation, simulation,
    artifact writing), never simulated time, which comes solely from
    :class:`~repro.engine.clock.SimClock`.
    """

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}

    @contextmanager
    def section(self, name: str):
        start = time.perf_counter()        # simlint: disable=SL001
        try:
            yield self
        finally:
            elapsed = time.perf_counter() - start  # simlint: disable=SL001
            self.seconds[name] = self.seconds.get(name, 0.0) + elapsed
            self.calls[name] = self.calls.get(name, 0) + 1

    def to_dict(self) -> Dict[str, Any]:
        return {"sections": [
            {"name": name, "seconds": round(seconds, 6),
             "calls": self.calls.get(name, 0)}
            for name, seconds in self.seconds.items()]}


# ---------------------------------------------------------------------------
# Artifact + rendering
# ---------------------------------------------------------------------------

def profile_document(name: str, profile: Optional[ProfileNode],
                     wall: Optional[WallClockProfiler] = None,
                     manifest: Optional[RunManifest] = None,
                     systems: int = 1) -> Dict[str, Any]:
    """Assemble the ``results/<run>.profile.json`` document.

    The ``profile`` half is deterministic under a fixed seed; the
    ``wall`` half is environment data (host timings) and excluded from
    run comparison, exactly like the manifest's environment fields.
    """
    if manifest is None:
        manifest = RunManifest.create(name)
    manifest.finish()
    return {
        "manifest": manifest.to_dict(),
        "systems": systems,
        "profile": profile.to_dict() if profile is not None else None,
        "wall": wall.to_dict() if wall is not None else None,
    }


def write_profile(name: str, profile: Optional[ProfileNode],
                  wall: Optional[WallClockProfiler] = None,
                  manifest: Optional[RunManifest] = None,
                  systems: int = 1, results_dir=None) -> Path:
    """Write ``<results_dir>/<name>.profile.json``; returns the path."""
    from .export import default_results_dir, write_json
    results_dir = Path(results_dir) if results_dir is not None \
        else default_results_dir()
    return write_json(results_dir / f"{name}.profile.json",
                      profile_document(name, profile, wall=wall,
                                       manifest=manifest, systems=systems))


def format_profile(profile: Union[ProfileNode, Dict[str, Any]],
                   wall: Optional[Dict[str, Any]] = None,
                   indent: str = "  ") -> str:
    """The where-did-the-cycles-go tree, with shares of the grand total.

    Scopes with nothing attributed anywhere below them are elided.
    """
    if isinstance(profile, dict):
        profile = ProfileNode.from_dict(profile)
    grand = profile.total or 1.0
    lines = [f"cycle accounting (attributed: {profile.total:,.0f} cycles)"]

    def render(node: ProfileNode, depth: int) -> None:
        if not node.total:
            return
        pad = indent * depth
        lines.append(f"{pad}{node.name:<24} {node.total:>14,.0f}  "
                     f"{node.total / grand:6.1%}")
        for label, cycles in sorted(node.breakdown.items(),
                                    key=lambda item: -item[1]):
            lines.append(f"{pad}{indent}- {label:<21} {cycles:>13,.0f}  "
                         f"{cycles / grand:6.1%}")
        for child in node.children:
            render(child, depth + 1)

    render(profile, 0)
    if wall and wall.get("sections"):
        lines.append("host wall clock (harness layers)")
        width = max(len(s["name"]) for s in wall["sections"])
        for section in wall["sections"]:
            lines.append(f"{indent}{section['name']:<{width}} "
                         f"{section['seconds']:>9.3f}s  "
                         f"x{section['calls']}")
    return "\n".join(lines)
