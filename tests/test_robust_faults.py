"""Deterministic fault injection: the plan, the injector, the session.

The contract under test (DESIGN.md "Robustness"):

* a :class:`FaultPlan` is validated, immutable, serialisable and
  scalable; the zero plan arms nothing;
* the injector fires at every hook site, counts exactly what it
  injected, and two injectors with the same plan and seed make
  byte-identical decisions;
* each ECC model resolves a DRAM error the right way (correction
  latency, retry latency, or a real flipped bit in the backing store);
* ``fault_session`` always uninstalls the hook, even across a crash;
* with no hook installed, the faults slot costs the hot path zero
  allocations in the hook machinery.
"""

import tracemalloc

import pytest

from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.core.address import PAGE_SIZE
from repro.engine.tracing import HOOKS, TraceError
from repro.osmodel.kernel import Kernel
from repro.robust import (DEFAULT_BASE_PLAN, ECC_MODES, FaultInjector,
                          FaultPlan, fault_session)

BASE_VPN = 0x100
BASE = BASE_VPN * PAGE_SIZE


def _cow_machine(pages=2, fill=b"fx"):
    """A kernel with *pages* CoW pages so writes take the overlay path."""
    kernel = Kernel()
    process = kernel.create_process()
    kernel.mmap(process, BASE_VPN, pages, fill=fill)
    kernel.fork(process)
    return kernel, process


class TestFaultPlan:
    def test_zero_plan_arms_nothing(self):
        plan = FaultPlan()
        assert all(value == 0.0 for value in plan.rates().values())

    def test_rejects_out_of_range_rates(self):
        with pytest.raises(ValueError, match="probability"):
            FaultPlan(omt_flip_rate=1.5)
        with pytest.raises(ValueError, match="probability"):
            FaultPlan(dram_error_rate=-0.1)

    def test_rejects_unknown_ecc(self):
        with pytest.raises(ValueError, match="ECC"):
            FaultPlan(ecc="hamming")
        for mode in ECC_MODES:
            FaultPlan(ecc=mode)  # all published modes construct

    def test_scaled_multiplies_and_caps(self):
        plan = FaultPlan(omt_flip_rate=0.4, coherence_drop_rate=0.9)
        doubled = plan.scaled(2.0)
        assert doubled.omt_flip_rate == pytest.approx(0.8)
        assert doubled.coherence_drop_rate == 1.0  # capped
        assert not any(plan.scaled(0.0).rates().values())

    def test_to_dict_round_trips_rates(self):
        plan = FaultPlan(tlb_fill_flip_rate=0.25, ecc="parity", seed=7)
        doc = plan.to_dict()
        assert doc["tlb_fill_flip_rate"] == 0.25
        assert doc["ecc"] == "parity"
        assert doc["seed"] == 7


class TestInjectorDeterminism:
    def test_same_plan_same_decisions(self):
        plan = FaultPlan(dram_error_rate=0.5, coherence_drop_rate=0.5,
                         seed=11)
        first = FaultInjector(plan)
        second = FaultInjector(plan)
        trace_a = [(first.on_dram_read(index * 64),
                    first.filter_coherence("remap", 0, index))
                   for index in range(50)]
        trace_b = [(second.on_dram_read(index * 64),
                    second.filter_coherence("remap", 0, index))
                   for index in range(50)]
        assert trace_a == trace_b
        assert first.stats.to_dict() == second.stats.to_dict()

    def test_different_seeds_decorrelate(self):
        plans = [FaultPlan(dram_error_rate=0.5, seed=seed)
                 for seed in (1, 2)]
        traces = [[FaultInjector(plan).rng.random() for _ in range(8)]
                  for plan in plans]
        assert traces[0] != traces[1]


class TestInjectionSites:
    def test_every_mapping_site_fires(self):
        """A saturated plan injects at the OMT, vector-copy, TLB and
        coherence sites during a plain CoW write/read workload."""
        kernel, process = _cow_machine()
        plan = FaultPlan(omt_flip_rate=1.0, obitvector_flip_rate=1.0,
                         tlb_fill_flip_rate=1.0, coherence_delay_rate=1.0,
                         seed=3)
        with fault_session(plan) as injector:
            for page in range(2):
                kernel.system.write(process.asid, BASE + page * PAGE_SIZE,
                                    b"w" * 8)
                kernel.system.read(process.asid, BASE + page * PAGE_SIZE, 8)
        stats = injector.stats
        assert stats.omt_bit_flips > 0
        assert stats.obitvector_copy_flips > 0
        assert stats.tlb_fill_flips > 0
        assert stats.coherence_delays > 0
        assert stats.total_injected == (
            stats.omt_bit_flips + stats.obitvector_copy_flips
            + stats.tlb_fill_flips + stats.coherence_delays)

    def test_dram_site_fires_on_memory_reads(self):
        kernel, process = _cow_machine()
        with fault_session(FaultPlan(dram_error_rate=1.0, seed=3)) as injector:
            kernel.system.read(process.asid, BASE, 8)
        assert injector.stats.dram_errors > 0
        assert injector.stats.ecc_corrections == injector.stats.dram_errors

    def test_coherence_drop_loses_the_message(self):
        injector = FaultInjector(FaultPlan(coherence_drop_rate=1.0, seed=1))
        deliver, extra = injector.filter_coherence("remap", 42, 7)
        assert (deliver, extra) == (False, 0)
        assert injector.stats.coherence_drops == 1

    def test_coherence_delay_charges_config_latency(self):
        config = SystemConfig(fault_coherence_delay_cycles=77)
        injector = FaultInjector(
            FaultPlan(coherence_delay_rate=1.0, seed=1), config=config)
        deliver, extra = injector.filter_coherence("commit", 42, 7)
        assert (deliver, extra) == (True, 77)
        assert injector.stats.coherence_delays == 1


class TestECCModels:
    def test_secded_corrects_and_charges(self):
        injector = FaultInjector(FaultPlan(dram_error_rate=1.0, seed=1))
        assert injector.on_dram_read(0) == DEFAULT_CONFIG.ecc_correction_latency
        assert injector.stats.ecc_corrections == 1
        assert injector.stats.silent_bit_errors == 0

    def test_parity_retries_and_charges(self):
        injector = FaultInjector(
            FaultPlan(dram_error_rate=1.0, ecc="parity", seed=1))
        assert injector.on_dram_read(0) == DEFAULT_CONFIG.ecc_retry_latency
        assert injector.stats.ecc_retries == 1

    def test_none_flips_a_real_bit_in_the_backing_store(self):
        kernel, process = _cow_machine(fill=b"\x00")
        ppn = process.mappings[BASE_VPN]
        memory = kernel.system.main_memory
        injector = FaultInjector(
            FaultPlan(dram_error_rate=1.0, ecc="none", seed=1),
            main_memory=memory)
        assert injector.on_dram_read(ppn * PAGE_SIZE + 5) == 0
        assert injector.stats.silent_bit_errors == 1
        page = memory.read_page(ppn)
        assert page != bytes(PAGE_SIZE)  # exactly one bit flipped
        assert sum(bin(byte).count("1") for byte in page) == 1

    def test_none_without_memory_only_counts(self):
        injector = FaultInjector(
            FaultPlan(dram_error_rate=1.0, ecc="none", seed=1))
        assert injector.on_dram_read(0) == 0
        assert injector.stats.silent_bit_errors == 1


class TestFaultSession:
    def test_installs_and_uninstalls(self):
        assert HOOKS.faults is None
        with fault_session(FaultPlan()) as injector:
            assert HOOKS.faults is injector
        assert HOOKS.faults is None

    def test_uninstalls_across_a_crash(self):
        with pytest.raises(RuntimeError, match="boom"):
            with fault_session(FaultPlan()):
                raise RuntimeError("boom")
        assert HOOKS.faults is None

    def test_double_install_rejected(self):
        with fault_session(FaultPlan()):
            with pytest.raises(TraceError, match="already installed"):
                with fault_session(FaultPlan()):
                    pass  # pragma: no cover
        assert HOOKS.faults is None


class TestDisarmedOverhead:
    def test_faults_slot_off_allocates_nothing_in_hook_machinery(self):
        """With ``HOOKS.faults`` empty, the injection sites reduce to a
        slot check: the hook machinery must not allocate."""
        assert HOOKS.faults is None
        kernel, process = _cow_machine()
        kernel.system.write(process.asid, BASE, b"warm")  # warm up lazies
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            for page in range(2):
                kernel.system.write(process.asid, BASE + page * PAGE_SIZE,
                                    b"y" * 8)
                kernel.system.read(process.asid, BASE + page * PAGE_SIZE, 8)
            kernel.system.hierarchy.flush_dirty()
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        observed = [
            tracemalloc.Filter(True, "*/engine/tracing.py"),
            tracemalloc.Filter(True, "*/robust/*.py"),
        ]
        growth = [stat for stat
                  in after.filter_traces(observed).compare_to(
                      before.filter_traces(observed), "lineno")
                  if stat.size_diff > 0]
        assert not growth, f"disarmed faults slot allocated: {growth}"

    def test_default_base_plan_is_fully_armed(self):
        assert all(value > 0.0
                   for value in DEFAULT_BASE_PLAN.rates().values())
