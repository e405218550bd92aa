"""Design ablations called out in DESIGN.md.

1. **OMT-cache size** (Section 4.4.4): overlay-heavy SpMV with 0..256
   OMT-cache entries — every entry removed turns overlay misses into OMT
   walks.
2. **Segment-size ladder** (Section 4.4.2): overlay memory with the full
   256B..4KB ladder vs only-4KB segments — the ladder is what delivers
   the capacity benefit for sparse overlays.
3. **Remap mechanism** (Section 4.3.3): overlaying writes whose TLB
   update uses the coherence message vs a full TLB shootdown — the
   coherence-based remap is what keeps overlay-on-write off the critical
   path.
4. **TLB-fill cost** (Section 4.3): overlay-enabled mappings fetch the
   OBitVector from the OMT on every TLB fill.
"""

from __future__ import annotations

from typing import Any, Dict

from ..core.address import PAGE_SIZE
from ..core.oms import smallest_segment_for
from ..cpu.core import Core
from ..cpu.trace import Trace
from ..osmodel.kernel import Kernel
from ..sparse.matrix_gen import generate_with_locality
from ..sparse.spmv import run_spmv
from ..techniques.overlay_on_write import OverlayOnWritePolicy

ROWS, COLS, NNZ = 64, 262144, 4000
OMT_SIZES = (0, 8, 64, 256)


def omt_cache_sweep(sizes=OMT_SIZES, locality=2.0) -> Dict[int, int]:
    """Overlay SpMV cycles at each OMT-cache size."""
    matrix = generate_with_locality(ROWS, COLS, NNZ, locality, seed=9)
    return {size: run_spmv(matrix, "overlay", omt_cache_entries=size).cycles
            for size in sizes}


def segment_ladder_comparison(lines_per_overlay=(1, 3, 7, 15, 31, 64),
                              overlays_per_class=100):
    """Memory for a population of overlays, ladder vs only-4KB segments."""
    ladder = sum(smallest_segment_for(count) * overlays_per_class
                 for count in lines_per_overlay)
    only_4k = PAGE_SIZE * overlays_per_class * len(lines_per_overlay)
    return ladder, only_4k


def remap_mechanism_comparison(writes=64) -> Dict[str, int]:
    """Total latency of N overlaying writes under each TLB-update cost."""
    results = {}
    for mechanism in ("coherence", "shootdown"):
        kernel = Kernel()
        parent = kernel.create_process()
        kernel.mmap(parent, 0x100, writes, fill=b"ab")
        kernel.install_cow_policy(OverlayOnWritePolicy(kernel))
        if mechanism == "shootdown":
            kernel.system.coherence.message_latency = (
                kernel.system.coherence.shootdown_latency)
        kernel.fork(parent)
        total = 0
        for page in range(writes):
            vaddr = (0x100 + page) * PAGE_SIZE
            total += kernel.system.write(parent.asid, vaddr, b"x" * 8)
        results[mechanism] = total
    return results


def tlb_fill_cost_comparison(pages=512, accesses=2000) -> Dict[bool, int]:
    """Cycles of a TLB-thrashing read workload, overlays on vs off.

    The difference is the (small) cost of fetching the OBitVector from
    the OMT on every TLB fill."""
    results = {}
    for overlays in (True, False):
        kernel = Kernel()
        kernel.system.overlays_enabled = overlays
        process = kernel.create_process()
        kernel.mmap(process, 0x100, pages, fill=b"tl")
        core = Core(kernel.system, process.asid)
        trace = Trace.random_in_region(0x100 * PAGE_SIZE,
                                       pages * PAGE_SIZE, accesses,
                                       write_fraction=0.0, seed=6)
        results[overlays] = core.run(trace).cycles
    return results


def run_ablations() -> Dict[str, Any]:
    """All four ablations at their DESIGN.md settings."""
    omt_cycles = omt_cache_sweep()
    ladder, only_4k = segment_ladder_comparison()
    remap_cycles = remap_mechanism_comparison()
    tlb_fill = tlb_fill_cost_comparison()
    return {
        "omt_cache_cycles": omt_cycles,
        "segment_ladder": {"ladder_bytes": ladder, "only_4k_bytes": only_4k},
        "remap_mechanism_cycles": remap_cycles,
        "tlb_fill_cycles": {"overlays_on": tlb_fill[True],
                            "overlays_off": tlb_fill[False]},
    }


def format_ablations(data: Dict[str, Any]) -> str:
    lines = ["Ablation 1: OMT cache size (overlay SpMV cycles, L=2)"]
    for size, cycles in data["omt_cache_cycles"].items():
        lines.append(f"  {size:>3d} entries: {cycles:>9d} cycles")
    ladder = data["segment_ladder"]["ladder_bytes"]
    only_4k = data["segment_ladder"]["only_4k_bytes"]
    lines += ["", "Ablation 2: segment ladder vs only-4KB segments",
              f"  full ladder : {ladder / 1024:8.0f} KB",
              f"  only 4KB    : {only_4k / 1024:8.0f} KB "
              f"({only_4k / ladder:.1f}x more)",
              "", "Ablation 3: remap TLB-update mechanism "
              "(64 overlaying writes, total latency)"]
    for mechanism, cycles in data["remap_mechanism_cycles"].items():
        lines.append(f"  {mechanism:<10}: {cycles:>9d} cycles")
    on = data["tlb_fill_cycles"]["overlays_on"]
    off = data["tlb_fill_cycles"]["overlays_off"]
    lines += ["", "Ablation 4: TLB-fill OBitVector fetch cost "
              "(TLB-thrashing reads)",
              f"  overlays off: {off:>9d} cycles",
              f"  overlays on : {on:>9d} cycles "
              f"(+{on / off - 1.0:.1%} — the Section 4.3 TLB-fill cost)"]
    return "\n".join(lines)
