"""Deterministic fault injection — the plan, the injector, the session.

The robustness layer's fault model: a :class:`FaultPlan` describes *what
can go wrong* (per-site fault rates plus the DRAM ECC model) and a
:class:`FaultInjector` — the :class:`~repro.engine.tracing.FaultHook`
implementation — decides *when it does*, off a ``random.Random`` derived
from :attr:`~repro.config.SystemConfig.rng_seed` through
:func:`~repro.engine.rng.derive_rng`.  Two runs with the same seed, the
same plan and the same workload inject byte-identical fault sequences,
which is what lets the campaign runner (:mod:`repro.robust.campaign`)
classify outcomes against a golden run.

Fault taxonomy (one rate knob per injection site):

========================  ====================================================
``omt_flip_rate``         flip one OBitVector bit of an entry coming out of an
                          OMT walk (``core/omt.py``) — *authoritative* mapping
                          state corrupted
``segment_pointer_rate``  corrupt one slot pointer of the walked entry's OMS
                          segment metadata (Figure 7) — later reads of that
                          line crash into :class:`~repro.core.oms.OMSError`
                          territory
``obitvector_flip_rate``  flip one bit of a *copied* vector
                          (``core/obitvector.py``) — a snapshot in flight to a
                          TLB or OMT-cache fill corrupted, authority intact
``tlb_fill_flip_rate``    flip one bit of a freshly installed TLB entry
                          (``core/tlb.py``) — one core's private copy diverges
``coherence_drop_rate``   drop an *overlaying read exclusive* or commit
                          broadcast (``core/coherence.py``) — remap never
                          becomes globally visible
``coherence_delay_rate``  delay a coherence broadcast by
                          ``config.fault_coherence_delay_cycles``
``dram_error_rate``       transient bit error on a DRAM line read
                          (``mem/dram.py``), resolved by the ECC model
========================  ====================================================

ECC models (``ecc``): ``"secded"`` corrects the error in the controller
pipeline and charges ``config.ecc_correction_latency``; ``"parity"``
detects it and retries the read, charging ``config.ecc_retry_latency``;
``"none"`` lets the flipped bit through into the backing store — a real
silent corruption the architectural checks may or may not catch.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Any, Dict, Iterator, Optional

from ..config import DEFAULT_CONFIG, SystemConfig
from ..core.address import LINES_PER_PAGE, PAGE_SIZE
from ..engine.rng import derive_rng
from ..engine.tracing import FaultHook, install_faults, uninstall_faults

#: Valid DRAM error-correction models, strongest first.
ECC_MODES = ("secded", "parity", "none")

#: Base RNG stream for fault plans (see :mod:`repro.engine.rng`); far from
#: every workload stream so arming faults never perturbs workload inputs.
FAULT_STREAM = 9000


@dataclass(frozen=True)
class FaultPlan:
    """What can go wrong, and how often.  Immutable and serialisable.

    All rates are per-opportunity probabilities in ``[0, 1]``; a plan
    with every rate at zero is valid and injects nothing (the campaign
    runner's golden configuration).  ``seed`` overrides the config-derived
    stream seed; ``stream`` offsets it so independent campaigns stay
    decorrelated.
    """

    omt_flip_rate: float = 0.0
    segment_pointer_rate: float = 0.0
    obitvector_flip_rate: float = 0.0
    tlb_fill_flip_rate: float = 0.0
    coherence_drop_rate: float = 0.0
    coherence_delay_rate: float = 0.0
    dram_error_rate: float = 0.0
    ecc: str = "secded"
    seed: Optional[int] = None
    stream: int = FAULT_STREAM

    def __post_init__(self):
        if self.ecc not in ECC_MODES:
            raise ValueError(
                f"unknown ECC model {self.ecc!r}; pick one of {ECC_MODES}")
        for name, value in self.rates().items():
            if not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"{name} must be a probability in [0, 1], got {value}")

    def rates(self) -> Dict[str, float]:
        """Every rate field by name (serialisation and validation)."""
        return {spec.name: getattr(self, spec.name)
                for spec in fields(self) if spec.name.endswith("_rate")}

    def scaled(self, factor: float) -> "FaultPlan":
        """A plan with every rate multiplied by *factor* (rate sweeps)."""
        changes = {name: min(1.0, value * factor)
                   for name, value in self.rates().items()}
        return FaultPlan(ecc=self.ecc, seed=self.seed, stream=self.stream,
                         **changes)

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = dict(sorted(self.rates().items()))
        doc["ecc"] = self.ecc
        doc["stream"] = self.stream
        if self.seed is not None:
            doc["seed"] = self.seed
        return doc


@dataclass
class FaultStats:
    """Counts of faults actually injected (not opportunities)."""

    omt_bit_flips: int = 0
    segment_pointer_corruptions: int = 0
    obitvector_copy_flips: int = 0
    tlb_fill_flips: int = 0
    coherence_drops: int = 0
    coherence_delays: int = 0
    dram_errors: int = 0
    ecc_corrections: int = 0
    ecc_retries: int = 0
    silent_bit_errors: int = 0

    @property
    def total_injected(self) -> int:
        return (self.omt_bit_flips + self.segment_pointer_corruptions
                + self.obitvector_copy_flips + self.tlb_fill_flips
                + self.coherence_drops + self.coherence_delays
                + self.dram_errors)

    def to_dict(self) -> Dict[str, int]:
        doc = {spec.name: getattr(self, spec.name) for spec in fields(self)}
        doc["total_injected"] = self.total_injected
        return doc


class FaultInjector(FaultHook):
    """Executes a :class:`FaultPlan` deterministically at every hook site.

    ``main_memory`` (the system's byte-accurate backing store) is only
    needed for the ``ecc="none"`` model, where an uncorrected DRAM error
    must actually land in the stored bytes; without it the error is
    counted but has no architectural effect.
    """

    def __init__(self, plan: FaultPlan,
                 config: Optional[SystemConfig] = None,
                 main_memory=None):
        self.plan = plan
        self.config = config or DEFAULT_CONFIG
        self.main_memory = main_memory
        self.rng = derive_rng(None, plan.seed, stream=plan.stream,
                              config=self.config)
        self.stats = FaultStats()

    # -- site callbacks (FaultHook interface) -------------------------------

    def on_omt_walk(self, entry) -> None:
        rng = self.rng
        if rng.random() < self.plan.omt_flip_rate:
            line = rng.randrange(LINES_PER_PAGE)
            vector = entry.obitvector
            if vector.is_set(line):
                vector.clear(line)
            else:
                vector.set(line)
            self.stats.omt_bit_flips += 1
        if (self.plan.segment_pointer_rate
                and entry.segment is not None
                and not entry.segment.is_direct_mapped
                and rng.random() < self.plan.segment_pointer_rate):
            mapped = entry.segment.mapped_lines()
            if mapped:
                # Point one line's slot pointer at a slot holding no
                # data: the next read of that line dies in the segment.
                line = mapped[rng.randrange(len(mapped))]
                entry.segment.slot_pointers[line] = entry.segment.capacity
                self.stats.segment_pointer_corruptions += 1

    def on_obitvector_copy(self, vector) -> None:
        if self.rng.random() < self.plan.obitvector_flip_rate:
            line = self.rng.randrange(LINES_PER_PAGE)
            if vector.is_set(line):
                vector.clear(line)
            else:
                vector.set(line)
            self.stats.obitvector_copy_flips += 1

    def on_tlb_fill(self, entry) -> None:
        if self.rng.random() < self.plan.tlb_fill_flip_rate:
            line = self.rng.randrange(LINES_PER_PAGE)
            vector = entry.obitvector
            if vector.is_set(line):
                vector.clear(line)
            else:
                vector.set(line)
            self.stats.tlb_fill_flips += 1

    def filter_coherence(self, kind: str, opn: int, line: int):
        if self.rng.random() < self.plan.coherence_drop_rate:
            self.stats.coherence_drops += 1
            return False, 0
        if self.rng.random() < self.plan.coherence_delay_rate:
            self.stats.coherence_delays += 1
            return True, self.config.fault_coherence_delay_cycles
        return True, 0

    def on_dram_read(self, address: int) -> int:
        if self.rng.random() >= self.plan.dram_error_rate:
            return 0
        self.stats.dram_errors += 1
        ecc = self.plan.ecc
        if ecc == "secded":
            # Single-error correct in the controller pipeline.
            self.stats.ecc_corrections += 1
            return self.config.ecc_correction_latency
        if ecc == "parity":
            # Detect-only: the controller re-reads the line.
            self.stats.ecc_retries += 1
            return self.config.ecc_retry_latency
        # No protection: the flipped bit lands in the backing store.
        self.stats.silent_bit_errors += 1
        if self.main_memory is not None:
            ppn, offset = divmod(address, PAGE_SIZE)
            byte = self.main_memory.read_bytes(ppn, offset, 1)[0]
            flipped = byte ^ (1 << self.rng.randrange(8))
            self.main_memory.write_bytes(ppn, offset, bytes([flipped]))
        return 0


@contextmanager
def fault_session(plan: FaultPlan,
                  config: Optional[SystemConfig] = None,
                  main_memory=None) -> Iterator[FaultInjector]:
    """Arm a :class:`FaultInjector` for a ``with`` block.

    Installs into the process-wide ``HOOKS.faults`` slot and always
    uninstalls on exit, so a crashed trial can never leak injection into
    the next (the campaign runner's crash outcome depends on this).
    """
    injector = FaultInjector(plan, config=config, main_memory=main_memory)
    install_faults(injector)
    try:
        yield injector
    finally:
        uninstall_faults()
