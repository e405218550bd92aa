"""Measurements for the five non-quantified Table 1 techniques.

Every row of the paper's Table 1 gets a regenerable number, each against
the baseline it beats.
"""

from __future__ import annotations

import random
from typing import Any, Dict

from ..core.address import LINE_SIZE, PAGE_SIZE
from ..core.page_table import SUPERPAGE_SPAN
from ..osmodel.kernel import Kernel
from ..techniques.checkpoint import CheckpointManager
from ..techniques.dedup import DeduplicationManager
from ..techniques.metadata import MetadataManager
from ..techniques.speculation import SpeculationContext
from ..techniques.superpage import SuperpageManager

BASE_VPN = 0x100
BASE = BASE_VPN * PAGE_SIZE


def dedup_vm_fleet(vms=6, pages=16, diff_lines=2):
    """Section 5.3.1: VMs sharing one image with a few differing lines."""
    kernel = Kernel()
    rng = random.Random(3)
    image = [bytes([rng.randrange(1, 255)]) * PAGE_SIZE
             for _ in range(pages)]
    processes = []
    for vm in range(vms):
        process = kernel.create_process()
        kernel.mmap(process, BASE_VPN, pages)
        for page, content in enumerate(image):
            patched = bytearray(content)
            for d in range(diff_lines):
                # avoid the dedup manager's sampled signature lines so
                # similarity clustering groups the fleet together
                line = 1 + (vm * 7 + d * 13) % 19
                tag = f"vm{vm:02d}d{d:02d}".encode().ljust(8, b"_")
                patched[line * 64:line * 64 + 8] = tag
            kernel.system.main_memory.write_page(
                process.mappings[BASE_VPN + page], bytes(patched))
        processes.append(process)
    before = kernel.allocator.bytes_in_use
    manager = DeduplicationManager(kernel, max_diff_lines=8)
    manager.deduplicate([(p.asid, BASE_VPN + page)
                         for page in range(pages) for p in processes])
    return before, kernel.allocator.bytes_in_use, manager


def checkpoint_epochs(epochs=4, pages=16, lines_per_epoch=10):
    """Section 5.3.2: checkpoints that ship only the overlay lines."""
    kernel = Kernel()
    process = kernel.create_process()
    kernel.mmap(process, BASE_VPN, pages, fill=b"ck")
    manager = CheckpointManager(kernel, process)
    rng = random.Random(5)
    manager.begin()
    for epoch in range(epochs):
        for _ in range(lines_per_epoch):
            vaddr = (BASE + rng.randrange(pages) * PAGE_SIZE
                     + rng.randrange(64) * LINE_SIZE)
            kernel.system.write(process.asid, vaddr, b"e%d" % epoch)
        manager.take_checkpoint()
    return manager


def speculation_round(lines=200):
    """Section 5.3.3: speculative state that outlives the caches."""
    kernel = Kernel()
    process = kernel.create_process()
    kernel.mmap(process, BASE_VPN, 32, fill=b"sp")
    spec = SpeculationContext(kernel, process)
    spec.begin()
    for i in range(lines):
        spec.write(BASE + (i % 32) * PAGE_SIZE + (i // 32) * LINE_SIZE,
                   bytes([i % 251]) * 8)
    kernel.system.hierarchy.flush_dirty()  # speculative lines evicted
    spilled = kernel.system.overlay_memory_allocated
    abort_latency = spec.abort()
    return spilled, abort_latency, kernel, process


def metadata_sweep(words=500):
    """Section 5.3.4: word-granularity shadow tags in overlays."""
    kernel = Kernel()
    process = kernel.create_process()
    kernel.mmap(process, BASE_VPN, 8, fill=b"md")
    manager = MetadataManager(kernel, process)
    for i in range(words):
        manager.metadata_store(BASE + i * 8, (i % 255) + 1)
    return manager


def superpage_divergence(writes=6):
    """Section 5.3.5: a CoW-shared super-page diverging segment by segment."""
    kernel = Kernel()
    manager = SuperpageManager(kernel)
    parent = kernel.create_process()
    child = kernel.create_process()
    manager.map_superpage(parent, 0)
    manager.share_cow(parent, child, 0)
    rng = random.Random(9)
    for _ in range(writes):
        manager.write_page(child, rng.randrange(512))
    return manager


def run_techniques() -> Dict[str, Any]:
    """One measurement per technique at its default settings."""
    before, after, dedup = dedup_vm_fleet()
    ck = checkpoint_epochs()
    spilled, abort_latency, _, _ = speculation_round()
    md = metadata_sweep()
    sp = superpage_divergence()
    return {
        "dedup": {"bytes_before": before, "bytes_after": after,
                  "pages_deduplicated": dedup.stats.pages_deduplicated,
                  "overlay_lines_created": dedup.stats.overlay_lines_created},
        "checkpoint": {"bytes_written": ck.total_bytes_written,
                       "page_granularity_bytes":
                           ck.total_page_granularity_bytes,
                       "bandwidth_reduction": ck.bandwidth_reduction},
        "speculation": {"spilled_bytes": spilled,
                        "abort_latency_cycles": abort_latency},
        "metadata": {"shadow_bytes": md.shadow_bytes,
                     "page_granularity_bytes": 8 * PAGE_SIZE},
        "superpage": {"segment_copies": sp.stats.segment_copies,
                      "pages_copied": sp.stats.pages_copied},
    }


def format_techniques(data: Dict[str, Any]) -> str:
    dedup, ck = data["dedup"], data["checkpoint"]
    spec, md, sp = data["speculation"], data["metadata"], data["superpage"]
    return "\n".join([
        f"dedup      : {dedup['bytes_before'] / 1024:.0f} KB -> "
        f"{dedup['bytes_after'] / 1024:.0f} KB "
        f"({dedup['pages_deduplicated']} pages merged, "
        f"{dedup['overlay_lines_created']} diff lines kept)",
        f"checkpoint : wrote {ck['bytes_written']} B vs "
        f"{ck['page_granularity_bytes']} B page-granularity "
        f"({ck['bandwidth_reduction']:.0%} bandwidth saved)",
        f"speculation: {spec['spilled_bytes'] / 1024:.0f} KB of speculative "
        f"state survived eviction; abort rolled back in "
        f"{spec['abort_latency_cycles']} cycles",
        f"metadata   : 500 tagged words cost {md['shadow_bytes']} B of "
        f"shadow (page-granularity shadow: {md['page_granularity_bytes']} B)",
        f"super-pages: {sp['segment_copies']} segment copies = "
        f"{sp['pages_copied']} pages copied "
        f"(full-copy baseline: {SUPERPAGE_SPAN} pages; "
        f"shatter baseline: {SUPERPAGE_SPAN} PTEs)",
    ])
