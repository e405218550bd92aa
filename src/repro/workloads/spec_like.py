"""Synthetic SPEC-CPU2006-like workloads for the fork experiment.

The paper picks 15 SPEC benchmarks in three types by write-working-set
structure (Section 5.1):

* **Type 1** — low write working set (bwaves, hmmer, libquantum,
  sphinx3, tonto): few pages are written after the fork, so both
  mechanisms consume little extra memory.
* **Type 2** — dense page updates (bzip2, cactus, lbm, leslie3d,
  soplex): almost every cache line of every modified page is updated, so
  both mechanisms converge to the same extra memory; performance depends
  on how close together in time a page's writes are (cactus writes its
  lines nearly back-to-back, which favours copy-on-write's bulk copy).
* **Type 3** — sparse page updates (astar, GemsFDTD, mcf, milc,
  omnetpp): only a few lines per modified page are updated, the case
  where overlays shine on both memory and performance.

SPEC itself is unavailable offline; these generators reproduce exactly
the structural properties the experiment depends on — how many pages are
written, how many lines within each written page, and how clustered in
time those writes are — with per-benchmark parameter presets.  Absolute
footprints are scaled down ~1000x from the 300M-instruction windows of
the paper (everything reported is a ratio or a per-page effect, so the
shape survives scaling).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.address import LINE_SIZE, LINES_PER_PAGE, PAGE_SIZE
from ..cpu.trace import MemoryAccess, Trace
from ..engine import process_state
from ..engine.rng import derive_rng


@dataclass(frozen=True)
class BenchmarkProfile:
    """Write-working-set structure of one SPEC-like benchmark."""

    name: str
    type_id: int              # 1, 2 or 3 (the paper's grouping)
    footprint_pages: int      # pages the benchmark touches overall
    write_pages: int          # distinct pages written after the fork
    lines_per_page: int       # distinct lines written per written page
    clustered_writes: bool    # True: a page's writes are back-to-back
    read_fraction: float      # reads per access in the measurement window
    gap: int                  # non-memory instructions per access


#: Parameter presets named after the paper's benchmarks.  write_pages and
#: lines_per_page encode each type's structure; small within-type
#: variation mirrors the spread visible in Figures 8 and 9.
BENCHMARKS: Dict[str, BenchmarkProfile] = {
    # Type 1: low write working set.
    "bwaves":  BenchmarkProfile("bwaves", 1, 512, 8, 8, False, 0.995, 6),
    "hmmer":   BenchmarkProfile("hmmer", 1, 384, 6, 12, False, 0.99, 6),
    "libq":    BenchmarkProfile("libq", 1, 256, 4, 16, True, 0.985, 7),
    "sphinx3": BenchmarkProfile("sphinx3", 1, 512, 10, 10, False, 0.995, 6),
    "tonto":   BenchmarkProfile("tonto", 1, 384, 12, 8, False, 0.99, 6),
    # Type 2: almost all lines of each written page are updated.
    "bzip2":    BenchmarkProfile("bzip2", 2, 768, 160, 60, False, 0.55, 5),
    "cactus":   BenchmarkProfile("cactus", 2, 768, 140, 64, True, 0.55, 5),
    "lbm":      BenchmarkProfile("lbm", 2, 1024, 220, 62, False, 0.50, 4),
    "leslie3d": BenchmarkProfile("leslie3d", 2, 896, 180, 60, False, 0.52, 5),
    "soplex":   BenchmarkProfile("soplex", 2, 640, 120, 56, False, 0.58, 5),
    # Type 3: only a few lines of each written page are updated.
    "astar":  BenchmarkProfile("astar", 3, 1024, 320, 7, False, 0.90, 5),
    "Gems":   BenchmarkProfile("Gems", 3, 1536, 420, 8, False, 0.88, 4),
    "mcf":    BenchmarkProfile("mcf", 3, 2048, 560, 6, False, 0.90, 4),
    "milc":   BenchmarkProfile("milc", 3, 1280, 380, 8, False, 0.88, 5),
    "omnet":  BenchmarkProfile("omnet", 3, 1024, 300, 7, False, 0.90, 5),
}

TYPE_ORDER = ["bwaves", "hmmer", "libq", "sphinx3", "tonto",
              "bzip2", "cactus", "lbm", "leslie3d", "soplex",
              "astar", "Gems", "mcf", "milc", "omnet"]

#: Memo of generated traces.  Trace construction is deterministic (frozen
#: profile + explicit seed), so identical requests rebuild byte-identical
#: traces; the memo skips the rebuild.  Only seeded requests are cached —
#: an injected rng carries hidden state and bypasses the memo.  Callers
#: get a fresh Trace wrapper over a copied access list, so appending to a
#: returned trace cannot corrupt the memo (MemoryAccess records are
#: immutable and safely shared).
_TRACE_MEMO: Dict[tuple, List[MemoryAccess]] = {}

#: Memo bound: one full sweep touches 15 benchmarks x 2 phases = 30
#: distinct keys, so 64 keeps every sweep hot while capping what a
#: long-lived campaign process (many scales/seeds) can accumulate.
#: Eviction is least-recently-used and purely deterministic — hits
#: refresh recency, inserts past the bound evict the stalest key.
TRACE_MEMO_CAPACITY = 64


def _memoized(key: tuple, build) -> Trace:
    accesses = _TRACE_MEMO.get(key)
    if accesses is None:
        accesses = build().accesses
        if len(_TRACE_MEMO) >= TRACE_MEMO_CAPACITY:
            _TRACE_MEMO.pop(next(iter(_TRACE_MEMO)))
        _TRACE_MEMO[key] = accesses
    else:
        # Refresh recency: dicts iterate in insertion order, so moving
        # a hit to the end makes the first key the LRU victim.
        _TRACE_MEMO.pop(key)
        _TRACE_MEMO[key] = accesses
    return Trace(list(accesses))


# The memo is a process-wide cache: a cleared (or differently warmed)
# memo must never change results — only rebuild cost.  Registering it
# lets reset_all drop it, and tests prove a reset-then-rerun
# is byte-identical to a fresh-process run.
process_state.register(
    "repro.workloads.spec_like._TRACE_MEMO",
    snapshot=lambda: tuple(
        (key[0], key[1].name) + key[2:] for key in _TRACE_MEMO),
    reset=_TRACE_MEMO.clear)


def warmup_trace(profile: BenchmarkProfile, base_vpn: int,
                 accesses: int = 4000, seed: Optional[int] = None,
                 rng: Optional[random.Random] = None) -> Trace:
    """Pre-fork phase: read-mostly traffic warming caches and TLBs.

    Randomness is deterministic: an injected *rng* wins, else a
    ``random.Random`` seeded from *seed* (default:
    ``SystemConfig.rng_seed + 1``, the phase's historical stream).
    """
    base = base_vpn * PAGE_SIZE
    span = profile.footprint_pages * PAGE_SIZE
    if rng is None:
        return _memoized(
            ("warmup", profile, base_vpn, accesses, seed),
            lambda: Trace.random_in_region(
                base, span, accesses, write_fraction=0.2,
                gap=profile.gap, rng=derive_rng(None, seed, stream=1)))
    rng = derive_rng(rng, seed, stream=1)
    return Trace.random_in_region(base, span, accesses,
                                  write_fraction=0.2, gap=profile.gap,
                                  rng=rng)


def measurement_trace(profile: BenchmarkProfile, base_vpn: int,
                      scale: float = 1.0, seed: Optional[int] = None,
                      rng: Optional[random.Random] = None) -> Trace:
    """Post-fork phase with the benchmark's write-working-set structure.

    ``scale`` multiplies the written-page count (for quick test runs).
    Randomness is deterministic: an injected *rng* wins, else a
    ``random.Random`` seeded from *seed* (default:
    ``SystemConfig.rng_seed + 2``, the phase's historical stream).
    Raises :class:`ValueError` when *scale* asks for more written pages
    than the footprint holds.
    """
    write_pages = max(1, round(profile.write_pages * scale))
    if write_pages > profile.footprint_pages:
        largest = math.floor(
            profile.footprint_pages / profile.write_pages * 1000) / 1000
        raise ValueError(
            f"{profile.name}: scale={scale} asks for {write_pages} written "
            f"pages but the footprint has {profile.footprint_pages}; the "
            f"largest valid scale is {largest}")
    if rng is None:
        return _memoized(
            ("measurement", profile, base_vpn, scale, seed),
            lambda: measurement_trace(profile, base_vpn, scale=scale,
                                      rng=derive_rng(None, seed, stream=2)))
    rng = derive_rng(rng, seed, stream=2)
    base = base_vpn * PAGE_SIZE
    pages = rng.sample(range(profile.footprint_pages), write_pages)

    # Build the write schedule: (page, line) in either clustered order
    # (page by page) or scattered order (round-robin over pages, which
    # spreads each page's writes out in time).
    per_page_lines: List[List[int]] = []
    for page in pages:
        lines = rng.sample(range(LINES_PER_PAGE),
                           min(profile.lines_per_page, LINES_PER_PAGE))
        per_page_lines.append(lines)

    writes: List[MemoryAccess] = []
    if profile.clustered_writes:
        for page, lines in zip(pages, per_page_lines):
            for line in lines:
                writes.append(_write(base, page, line, rng, profile.gap))
    else:
        round_index = 0
        remaining = True
        while remaining:
            remaining = False
            for page, lines in zip(pages, per_page_lines):
                if round_index < len(lines):
                    writes.append(_write(base, page, lines[round_index],
                                         rng, profile.gap))
                    remaining = True
            round_index += 1

    # Interleave reads with the writes per the benchmark's read fraction.
    # Reads follow an 80/20 hot/cold split over the footprint — real
    # benchmarks have strong read locality, which keeps the steady-state
    # TLB/cache behaviour realistic at this scale.
    reads_needed = int(len(writes) * profile.read_fraction
                       / max(1e-9, 1.0 - profile.read_fraction))
    hot_pages = rng.sample(range(profile.footprint_pages),
                           max(1, min(32, profile.footprint_pages // 4)))
    reads: List[MemoryAccess] = []
    for _ in range(reads_needed):
        if rng.random() < 0.8:
            page = rng.choice(hot_pages)
        else:
            page = rng.randrange(profile.footprint_pages)
        vaddr = base + page * PAGE_SIZE + rng.randrange(PAGE_SIZE // 8) * 8
        reads.append(MemoryAccess(vaddr=vaddr, gap=profile.gap))
    trace = Trace(writes).interleave(Trace(reads))
    return trace


def _write(base: int, page: int, line: int, rng: random.Random,
           gap: int) -> MemoryAccess:
    offset = rng.randrange(LINE_SIZE // 8) * 8
    return MemoryAccess(vaddr=base + page * PAGE_SIZE + line * LINE_SIZE
                        + offset, write=True, gap=gap)
