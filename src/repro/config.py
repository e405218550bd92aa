"""Table 2: the simulated system configuration.

A single source of truth for every timing parameter, matching the
paper's Table 2.  The structural components read their defaults from the
same values this table reports; the ``bench_table2`` benchmark prints it
in the paper's layout, and ablations override single fields.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import List, Tuple


class ConfigError(ValueError):
    """Raised when a :class:`SystemConfig` is structurally invalid.

    Catching bad parameters at construction turns what used to surface
    as deep arithmetic bugs (zero-division in set indexing, negative
    latencies silently rewinding cursors) into one actionable message.
    """


def _is_power_of_two(value: int) -> bool:
    return isinstance(value, int) and value > 0 and value & (value - 1) == 0


@dataclass(frozen=True)
class SystemConfig:
    """Every Table 2 parameter, in paper order."""

    # Processor
    frequency_ghz: float = 2.67
    issue_width: int = 1
    instruction_window: int = 64
    cache_line_bytes: int = 64
    # TLB
    page_bytes: int = 4096
    l1_tlb_entries: int = 64
    l1_tlb_ways: int = 4
    l1_tlb_latency: int = 1
    l2_tlb_entries: int = 1024
    l2_tlb_latency: int = 10
    tlb_miss_latency: int = 1000
    # L1 cache
    l1_bytes: int = 64 * 1024
    l1_ways: int = 4
    l1_tag_latency: int = 1
    l1_data_latency: int = 2
    l1_policy: str = "lru"
    # L2 cache
    l2_bytes: int = 512 * 1024
    l2_ways: int = 8
    l2_tag_latency: int = 2
    l2_data_latency: int = 8
    l2_policy: str = "lru"
    # Prefetcher
    prefetcher_entries: int = 16
    prefetcher_degree: int = 4
    prefetcher_distance: int = 24
    # L3 cache
    l3_bytes: int = 2 * 1024 * 1024
    l3_ways: int = 16
    l3_tag_latency: int = 10
    l3_data_latency: int = 24
    l3_policy: str = "drrip"
    # DRAM controller
    row_policy: str = "open"
    scheduler: str = "FR-FCFS drain-when-full"
    write_buffer_entries: int = 64
    omt_cache_entries: int = 64
    miss_latency: int = 1000
    # DRAM and bus
    dram_type: str = "DDR3-1066"
    channels: int = 1
    ranks: int = 1
    banks: int = 8
    bus_bytes: int = 8
    burst_length: int = 8
    row_buffer_bytes: int = 8192
    # Derived / coherence timing (Sections 3-4; not printed in Table 2
    # but owned here so no other module holds a timing literal).
    cpu_cycles_per_tck: int = 5          # 2.67 GHz CPU / 533 MHz DDR3-1066
    table_walk_access_cycles: int = 120  # uncontended row-miss DRAM read
    overlay_read_exclusive_latency: int = 100   # single-line remap broadcast
    tlb_shootdown_latency: int = 3000    # IPI-based shootdown [40, 54]
    # Fault handling (repro.robust): DRAM ECC and coherence-fault timing.
    # SECDED corrects a single-bit read error inside the controller
    # pipeline; detect-only parity forces a full retry of the column
    # access; a fault-delayed coherence message arrives this much later.
    ecc_correction_latency: int = 20
    ecc_retry_latency: int = 110
    fault_coherence_delay_cycles: int = 100
    # Reproducibility: the base seed every synthetic-input generator
    # derives its random.Random from (Section 5 runs are deterministic).
    rng_seed: int = 0

    # -- construction-time validation ------------------------------------

    #: Byte-size fields that must be powers of two (set indexing and the
    #: address-bit arithmetic in :mod:`repro.core.address` require it).
    _POWER_OF_TWO_FIELDS = ("cache_line_bytes", "page_bytes", "l1_bytes",
                            "l2_bytes", "l3_bytes", "bus_bytes",
                            "row_buffer_bytes")

    def __post_init__(self) -> None:
        problems: List[str] = []
        for spec in fields(self):
            name = spec.name
            value = getattr(self, name)
            if name.endswith("_latency") or name.endswith("_cycles"):
                if not isinstance(value, int) or value <= 0:
                    problems.append(
                        f"{name}={value!r}: latencies are whole positive "
                        f"cycle counts (use >= 1)")
        for name in self._POWER_OF_TWO_FIELDS:
            value = getattr(self, name)
            if not _is_power_of_two(value):
                problems.append(
                    f"{name}={value!r}: sizes must be positive powers of "
                    f"two (e.g. {name}=4096)")
        if self.frequency_ghz <= 0:
            problems.append(f"frequency_ghz={self.frequency_ghz!r}: the "
                            f"core clock must be positive")
        for entries, ways, label in (
                (self.l1_tlb_entries, self.l1_tlb_ways, "l1_tlb"),
                (self.l1_bytes // max(1, self.cache_line_bytes),
                 self.l1_ways, "l1"),
                (self.l2_bytes // max(1, self.cache_line_bytes),
                 self.l2_ways, "l2"),
                (self.l3_bytes // max(1, self.cache_line_bytes),
                 self.l3_ways, "l3")):
            if ways <= 0:
                problems.append(f"{label}_ways={ways!r}: associativity "
                                f"must be at least 1")
            elif entries % ways:
                problems.append(
                    f"{label}: {entries} entries do not divide into "
                    f"{ways} ways; adjust {label}_ways or the size so "
                    f"entries % ways == 0")
        if _is_power_of_two(self.cache_line_bytes) \
                and _is_power_of_two(self.page_bytes) \
                and self.page_bytes % self.cache_line_bytes:
            problems.append(
                f"page_bytes={self.page_bytes} is not a multiple of "
                f"cache_line_bytes={self.cache_line_bytes}")
        if self.write_buffer_entries <= 0:
            problems.append(f"write_buffer_entries="
                            f"{self.write_buffer_entries!r}: the DRAM "
                            f"write buffer needs at least one entry")
        if self.omt_cache_entries < 0:
            problems.append(f"omt_cache_entries="
                            f"{self.omt_cache_entries!r}: use 0 to "
                            f"disable the OMT cache, not a negative size")
        if problems:
            raise ConfigError(
                "invalid SystemConfig:\n  " + "\n  ".join(problems))

    def as_rows(self) -> List[Tuple[str, str]]:
        """Rows in the layout of Table 2."""
        return [
            ("Processor",
             f"{self.frequency_ghz} GHz, single issue, out-of-order, "
             f"{self.instruction_window} entry instruction window, "
             f"{self.cache_line_bytes}B cache lines"),
            ("TLB",
             f"{self.page_bytes // 1024}K pages, {self.l1_tlb_entries}-entry "
             f"{self.l1_tlb_ways}-way associative L1 ({self.l1_tlb_latency} cycle), "
             f"{self.l2_tlb_entries}-entry L2 ({self.l2_tlb_latency} cycles), "
             f"TLB miss = {self.tlb_miss_latency} cycles"),
            ("L1 Cache",
             f"{self.l1_bytes // 1024}KB, {self.l1_ways}-way associative, "
             f"tag/data latency = {self.l1_tag_latency}/{self.l1_data_latency} cycles, "
             f"parallel tag/data lookup, LRU policy"),
            ("L2 Cache",
             f"{self.l2_bytes // 1024}KB, {self.l2_ways}-way associative, "
             f"tag/data latency = {self.l2_tag_latency}/{self.l2_data_latency} cycles, "
             f"parallel tag/data lookup, LRU policy"),
            ("Prefetcher",
             f"Stream prefetcher, monitor L2 misses and prefetch into L3, "
             f"{self.prefetcher_entries} entries, degree = {self.prefetcher_degree}, "
             f"distance = {self.prefetcher_distance}"),
            ("L3 Cache",
             f"{self.l3_bytes // (1024 * 1024)}MB, {self.l3_ways}-way associative, "
             f"tag/data latency = {self.l3_tag_latency}/{self.l3_data_latency} cycles, "
             f"serial tag/data lookup, DRRIP policy"),
            ("DRAM Controller",
             f"Open row, FR-FCFS drain when full, "
             f"{self.write_buffer_entries}-entry write buffer, "
             f"{self.omt_cache_entries}-entry OMT cache, "
             f"miss latency = {self.miss_latency} cycles"),
            ("DRAM and Bus",
             f"{self.dram_type}, {self.channels} channel, {self.ranks} rank, "
             f"{self.banks} banks, {self.bus_bytes}B-wide data bus, "
             f"burst length = {self.burst_length}, "
             f"{self.row_buffer_bytes // 1024}KB row buffer"),
        ]

    def format_table(self) -> str:
        rows = self.as_rows()
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)


DEFAULT_CONFIG = SystemConfig()
