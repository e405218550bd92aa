"""Host-time attribution by layer, recorded from outside the program.

:class:`LayerTracer` replaces each layer's public methods, at class
level, with a wrapper that opens a span on entry and closes it on exit.
A layer's self time is its spans' durations minus the parts their
child spans cover; its inclusive time counts only outermost spans, so
a layer that re-enters itself is not counted twice.  Raw spans are
kept for the first ``span_requests`` ``Core.step`` requests.

Wrapping must happen before any machine is built: the hierarchy's
miss/fetch/writeback ports capture bound ``MemoryController`` methods
when the machine is constructed.  :class:`Patches` puts every replaced
attribute back afterwards.

:class:`SimProbe` sums what every ``Core.run`` returns (the simulated
work of a timed phase) and, in a traced run, the stats trees of the
machines built.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable, Dict, List, Tuple

from repro.core.framework import OverlaySystem
from repro.cpu.core import Core, CoreStats

#: (layer, module, class, public methods).  ``mem.cache`` is split per
#: instance into ``mem.cache.l1`` / ``.l2`` / ``.l3``.
LAYER_METHODS = (
    ("cpu.core", "repro.cpu.core", "Core", ("step",)),
    ("core.framework", "repro.core.framework", "OverlaySystem",
     ("read", "write", "overlaying_write", "copy_page_via_cache",
      "copy_page_via_dram", "promote", "install_overlay_line")),
    ("core.mmu", "repro.core.mmu", "MMU", ("translate",)),
    ("core.tlb", "repro.core.tlb", "TLB",
     ("lookup", "fill", "shootdown", "snoop_overlaying_write",
      "snoop_commit")),
    ("mem.hierarchy", "repro.mem.hierarchy", "MemoryHierarchy",
     ("access", "lookup_data", "dirty_data", "retag", "invalidate",
      "clean", "flush_dirty")),
    ("mem.cache", "repro.mem.cache", "SetAssociativeCache",
     ("access", "fill", "invalidate", "retag")),
    ("mem.prefetcher", "repro.mem.prefetcher", "StreamPrefetcher",
     ("on_miss",)),
    ("mem.dram", "repro.mem.dram", "DRAM", ("read", "write", "drain_writes")),
    ("core.mmu.controller", "repro.core.mmu", "MemoryController",
     ("resolve_miss", "fetch_data", "handle_writeback", "omt_entry",
      "drop_overlay")),
    ("core.omt", "repro.core.omt", "OMTCache", ("lookup", "invalidate")),
    ("core.oms", "repro.core.oms", "OverlayMemoryStore",
     ("allocate_segment", "write_line", "read_line", "free_segment",
      "migrate")),
    ("core.coherence", "repro.core.coherence", "CoherenceNetwork",
     ("overlaying_read_exclusive", "shootdown", "broadcast_commit")),
    ("osmodel.cow", "repro.osmodel.cow", "CopyOnWritePolicy", ("__call__",)),
    ("techniques.overlay_on_write", "repro.techniques.overlay_on_write",
     "OverlayOnWritePolicy", ("__call__",)),
    ("osmodel.kernel", "repro.osmodel.kernel", "Kernel",
     ("__init__", "mmap", "fork", "additional_memory_since")),
    ("sparse", "repro.sparse.csr", "CSRMatrix", ("build", "spmv_trace")),
    ("sparse", "repro.sparse.overlay_rep", "OverlaySparseMatrix",
     ("build", "spmv_trace")),
)

#: Every layer a traced run reports, in report order.
LAYERS = ("cpu.core", "core.framework", "core.mmu", "core.tlb",
          "mem.hierarchy", "mem.cache.l1", "mem.cache.l2", "mem.cache.l3",
          "mem.prefetcher", "mem.dram", "core.mmu.controller", "core.omt",
          "core.oms", "core.coherence", "osmodel.cow",
          "techniques.overlay_on_write", "osmodel.kernel", "sparse")

#: The layer whose spans are requests: one ``Core.step`` is one access.
REQUEST_LAYER = "cpu.core"


def resolve_class(module: str, name: str) -> type:
    return getattr(importlib.import_module(module), name)


class Patches:
    """Class attributes replaced until :meth:`restore` (or block exit)."""

    def __init__(self) -> None:
        self.saved: List[Tuple[type, str, object]] = []

    def replace(self, cls: type, name: str,
                make: Callable[[Callable], Callable]) -> None:
        """Set ``cls.name`` to ``make(original)``."""
        original = cls.__dict__[name]
        self.saved.append((cls, name, original))
        setattr(cls, name, make(original))

    def restore(self) -> None:
        while self.saved:
            cls, name, original = self.saved.pop()
            setattr(cls, name, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


class LayerTracer:
    """Per-layer call counts, self and inclusive host seconds, per-edge
    totals, and raw spans for the first requests."""

    def __init__(self, span_requests: int = 1000,
                 clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.span_requests = span_requests
        self.index = {layer: i for i, layer in enumerate(LAYERS)}
        count = len(LAYERS)
        self.calls = [0] * count
        self.self_s = [0.0] * count
        self.incl_s = [0.0] * count
        #: Calls and seconds per edge, indexed [caller + 1][callee]; row 0
        #: holds calls entered from outside every layer (the harness).
        self.edge_calls = [[0] * count for _ in range(count + 1)]
        self.edge_s = [[0.0] * count for _ in range(count + 1)]
        #: [label, start, end, parent span index, request id]: times in
        #: seconds since the tracer was made, request id the ``Core.step``
        #: ordinal (-1 outside any request).
        self.spans: List[list] = []
        self.requests = 0
        self.request = -1
        self.origin = clock()
        #: Open spans: [layer, seconds covered by children, span index].
        self.stack: List[list] = []
        self._depth = [0] * count

    def wrap(self, original: Callable, layer_of: Callable[[object], int],
             label: str) -> Callable:
        """*original* with a span around every call; *layer_of* maps the
        receiving object to its layer index.  The bookkeeping is inlined
        here because it runs millions of times per pass."""
        clock, stack, spans = self.clock, self.stack, self.spans
        calls, self_s, incl_s = self.calls, self.self_s, self.incl_s
        edge_calls, edge_s, depth = self.edge_calls, self.edge_s, self._depth
        request_layer = self.index[REQUEST_LAYER]

        def traced(obj, *args, **kwargs):
            layer = layer_of(obj)
            if layer == request_layer:
                self.request = self.requests
                self.requests += 1
            span = -1
            if self.requests <= self.span_requests:
                span = len(spans)
                spans.append([label, 0.0, 0.0, stack[-1][2] if stack else -1,
                              self.request])
            depth[layer] += 1
            frame = [layer, 0.0, span]
            stack.append(frame)
            start = clock()
            try:
                return original(obj, *args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                stack.pop()
                calls[layer] += 1
                self_s[layer] += duration - frame[1]
                depth[layer] -= 1
                if not depth[layer]:
                    incl_s[layer] += duration
                caller = 0
                if stack:
                    stack[-1][1] += duration
                    caller = stack[-1][0] + 1
                edge_calls[caller][layer] += 1
                edge_s[caller][layer] += duration
                if span >= 0:
                    spans[span][1] = start - self.origin
                    spans[span][2] = end - self.origin
                if layer == request_layer:
                    self.request = -1
        return traced

    def install(self, patches: Patches) -> None:
        """Wrap every method of :data:`LAYER_METHODS` into *patches*."""
        levels = {name.rsplit(".", 1)[1]: index
                  for name, index in self.index.items()
                  if name.startswith("mem.cache.")}
        for layer, module, class_name, methods in LAYER_METHODS:
            cls = resolve_class(module, class_name)
            if layer == "mem.cache":
                def layer_of(cache):
                    return levels[cache.component_name]
            else:
                def layer_of(_obj, index=self.index[layer]):
                    return index
            for method in methods:
                patches.replace(cls, method, functools.partial(
                    self.wrap, layer_of=layer_of,
                    label=f"{class_name}.{method}"))

    def layer_times(self, wall: float, passes: int) -> Dict[str, dict]:
        """Per layer: self and inclusive seconds per pass, and the self
        share of *wall*, the traced seconds of *passes* passes."""
        return {layer: {"self_s": self.self_s[i] / passes,
                        "incl_s": self.incl_s[i] / passes,
                        "self_share": self.self_s[i] / wall}
                for i, layer in enumerate(LAYERS)}

    def edge_table(self, passes: int) -> Dict[str, dict]:
        """``"caller>layer"`` -> calls and inclusive seconds per pass."""
        callers = ("harness",) + LAYERS
        return {f"{caller}>{layer}": {"calls": calls // passes,
                                      "incl_s": seconds / passes}
                for caller, call_row, second_row
                in zip(callers, self.edge_calls, self.edge_s)
                for layer, calls, seconds in zip(LAYERS, call_row, second_row)
                if calls}


#: Simulated statistics a traced run reports, with their units.  They
#: are deterministic, so they double as a fingerprint of the model.
SIM_METRICS = {
    "sim.accesses": "count",
    "sim.window_stall_share": "fraction",
    "sim.tlb.miss_rate": "fraction",
    "sim.l1.hit_rate": "fraction",
    "sim.l2.hit_rate": "fraction",
    "sim.l3.hit_rate": "fraction",
    "sim.prefetch.useful_ratio": "fraction",
    "sim.dram.row_hit_rate": "fraction",
    "sim.dram.accesses": "count",
    "sim.omt_cache.hit_rate": "fraction",
    "sim.oms.segments_allocated": "count",
    "sim.coherence.messages": "count",
    "sim.cow_triggers": "count",
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class SimProbe:
    """Sums the :class:`CoreStats` every ``Core.run`` returns and, with
    *keep_machines*, the stats trees of the machines built meanwhile."""

    def __init__(self, keep_machines: bool = False):
        self.core = CoreStats()
        self.keep_machines = keep_machines
        self.machines: list = []
        self.paths: Dict[str, float] = {}

    def install(self, patches: Patches) -> None:
        def make_run(original):
            def run(core, *args, **kwargs):
                stats = original(core, *args, **kwargs)
                self.core.merge(stats)
                return stats
            return run

        def make_init(original):
            def init(system, *args, **kwargs):
                original(system, *args, **kwargs)
                self.machines.append(system)
            return init

        patches.replace(Core, "run", make_run)
        if self.keep_machines:
            patches.replace(OverlaySystem, "__init__", make_init)

    def fold(self) -> None:
        """Add the kept machines' counters to :attr:`paths`, then drop
        the machines (a run builds dozens; holding them costs memory)."""
        for system in self.machines:
            for path, value in system.stats_scope.flat_paths().items():
                self.paths[path] = self.paths.get(path, 0) + value
        self.machines.clear()

    def sim_metrics(self) -> Dict[str, float]:
        def get(path: str) -> float:
            return self.paths.get(f"system.{path}", 0)

        def hit_rate(prefix: str, hit: str = "hits",
                     miss: str = "misses") -> float:
            hits = get(f"{prefix}.{hit}")
            return _ratio(hits, hits + get(f"{prefix}.{miss}"))

        tlb_misses = get("tlb0.misses")
        core = self.core
        return {
            "sim.accesses": core.memory_accesses,
            "sim.window_stall_share": _ratio(core.window_stall_cycles,
                                             core.cycles),
            "sim.tlb.miss_rate": _ratio(
                tlb_misses, tlb_misses + get("tlb0.l1_hits")
                + get("tlb0.l2_hits")),
            "sim.l1.hit_rate": hit_rate("hierarchy.l1"),
            "sim.l2.hit_rate": hit_rate("hierarchy.l2"),
            "sim.l3.hit_rate": hit_rate("hierarchy.l3"),
            "sim.prefetch.useful_ratio": _ratio(
                get("hierarchy.l3.prefetch_hits"),
                get("hierarchy.prefetcher.issued")),
            "sim.dram.row_hit_rate": hit_rate("dram", "row_hits",
                                              "row_misses"),
            "sim.dram.accesses": get("dram.reads") + get("dram.writes"),
            "sim.omt_cache.hit_rate": hit_rate(
                "controller.omt_cache", "cache_hits", "cache_misses"),
            "sim.oms.segments_allocated": get(
                "controller.oms.segments_allocated"),
            "sim.coherence.messages": sum(
                get(f"coherence.{name}") for name in
                ("overlaying_read_exclusive_messages", "commit_broadcasts",
                 "shootdowns")),
            "sim.cow_triggers": get("framework.cow_triggers"),
        }
