"""Section 4.5: hardware storage cost of the overlay framework.

The paper's accounting:

* each OMT cache entry is 512 bits (48b OPN + 48b OMSaddr + 64b
  OBitVector + 64 x 5b slot pointers + 32b free vector), so the 64-entry
  OMT cache is 4KB;
* TLB entries widen by the 64-bit OBitVector: 8.5KB across a 64-entry L1
  and a 1024-entry L2 TLB;
* cache tags widen by 16 bits for the larger physical address: 82KB
  across 64KB L1 + 512KB L2 + 2MB L3;
* total: 94.5KB.

This module recomputes those numbers from the same structural
parameters, so ``python -m repro hardware_cost`` regenerates the
section's arithmetic and ablations can vary structure sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..config import DEFAULT_CONFIG, SystemConfig
from ..core.obitvector import OBitVector
from ..core.omt import OMT_ENTRY_BITS


@dataclass
class HardwareCost:
    """Storage overheads in bytes."""

    omt_cache_bytes: int
    tlb_extension_bytes: int
    cache_tag_extension_bytes: int

    @property
    def total_bytes(self) -> int:
        return (self.omt_cache_bytes + self.tlb_extension_bytes
                + self.cache_tag_extension_bytes)


def compute_hardware_cost(config: SystemConfig = DEFAULT_CONFIG,
                          extra_tag_bits: int = 16) -> HardwareCost:
    """Recompute Section 4.5's storage arithmetic from *config*."""
    omt_cache_bits = config.omt_cache_entries * OMT_ENTRY_BITS
    tlb_entries = config.l1_tlb_entries + config.l2_tlb_entries
    tlb_bits = tlb_entries * OBitVector.WIDTH
    total_cache_lines = (config.l1_bytes + config.l2_bytes
                         + config.l3_bytes) // config.cache_line_bytes
    tag_bits = total_cache_lines * extra_tag_bits
    return HardwareCost(omt_cache_bytes=omt_cache_bits // 8,
                        tlb_extension_bytes=tlb_bits // 8,
                        cache_tag_extension_bytes=tag_bits // 8)


def format_hardware_cost(cost: HardwareCost) -> str:
    rows: List[Tuple[str, float]] = [
        ("OMT cache (64 x 512-bit entries)", cost.omt_cache_bytes / 1024),
        ("TLB OBitVector extension (L1+L2 TLB)",
         cost.tlb_extension_bytes / 1024),
        ("Cache tag extension (16b x L1+L2+L3 lines)",
         cost.cache_tag_extension_bytes / 1024),
        ("Total", cost.total_bytes / 1024),
    ]
    width = max(len(name) for name, _ in rows)
    lines = ["Section 4.5: hardware storage cost"]
    lines += [f"{name:<{width}}  {kb:7.1f} KB" for name, kb in rows]
    return "\n".join(lines)
