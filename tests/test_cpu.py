"""Unit tests for the trace format and the core timing model."""

import pytest

from repro.cpu.core import Core
from repro.cpu.trace import MemoryAccess, Trace
from repro.engine.clock import ClockError
from repro.osmodel.kernel import Kernel


class TestTrace:
    def test_instruction_counting(self):
        trace = Trace([MemoryAccess(vaddr=0, gap=3),
                       MemoryAccess(vaddr=8, gap=5)])
        assert trace.instructions == 3 + 1 + 5 + 1
        assert len(trace) == 2

    def test_sequential_constructor(self):
        trace = Trace.sequential(base=0x1000, count=4, stride=64)
        addrs = [access.vaddr for access in trace]
        assert addrs == [0x1000, 0x1040, 0x1080, 0x10C0]

    def test_random_in_region_stays_in_bounds(self):
        trace = Trace.random_in_region(0x1000, 0x2000, 200, seed=1)
        for access in trace:
            assert 0x1000 <= access.vaddr < 0x3000

    def test_random_write_fraction(self):
        trace = Trace.random_in_region(0, 4096, 1000, write_fraction=0.5,
                                       seed=2)
        writes = sum(1 for access in trace if access.write)
        assert 350 < writes < 650

    def test_random_is_deterministic_by_seed(self):
        a = Trace.random_in_region(0, 4096, 50, seed=7)
        b = Trace.random_in_region(0, 4096, 50, seed=7)
        assert [x.vaddr for x in a] == [x.vaddr for x in b]

    def test_interleave(self):
        a = Trace([MemoryAccess(vaddr=1), MemoryAccess(vaddr=3)])
        b = Trace([MemoryAccess(vaddr=2)])
        merged = a.interleave(b)
        assert [x.vaddr for x in merged] == [1, 2, 3]

    def test_append_extend(self):
        trace = Trace()
        trace.append(MemoryAccess(vaddr=1))
        trace.extend([MemoryAccess(vaddr=2)])
        assert len(trace) == 2


def machine(pages=4):
    kernel = Kernel()
    process = kernel.create_process()
    kernel.mmap(process, 0x100, pages, fill=b"cp")
    return kernel, process


class TestCore:
    def test_runs_and_counts(self):
        kernel, process = machine()
        core = Core(kernel.system, process.asid)
        trace = Trace.sequential(0x100 * 4096, 32, stride=64)
        stats = core.run(trace)
        assert stats.memory_accesses == 32
        assert stats.instructions == trace.instructions
        assert stats.cycles > 0
        assert stats.cpi > 1.0

    def test_cache_warmth_reduces_cpi(self):
        kernel, process = machine()
        core = Core(kernel.system, process.asid)
        trace = Trace.sequential(0x100 * 4096, 32, stride=64)
        cold = core.run(trace)
        warm = core.run(trace)
        assert warm.cpi < cold.cpi

    def test_clock_continues_between_runs(self):
        kernel, process = machine()
        core = Core(kernel.system, process.asid)
        trace = Trace.sequential(0x100 * 4096, 8, stride=64)
        core.run(trace)
        after_first = kernel.system.clock
        core.run(trace)
        assert kernel.system.clock > after_first

    def test_explicit_start_cycle(self):
        kernel, process = machine()
        core = Core(kernel.system, process.asid)
        trace = Trace.sequential(0x100 * 4096, 4, stride=64)
        stats = core.run(trace, start_cycle=0)
        assert stats.cycles == kernel.system.clock

    def test_step_keeps_the_clock_contract(self):
        """The step's inlined cursor move and seek still reject a
        negative gap and a negative start, and leave the clock at the
        issue cycle of the last access."""
        kernel, process = machine()
        core = Core(kernel.system, process.asid)
        with pytest.raises(ClockError):
            core.run(Trace([MemoryAccess(vaddr=0x100 * 4096, gap=-1)]))
        with pytest.raises(ClockError):
            core.begin_run(Trace.sequential(0x100 * 4096, 1), start_cycle=-1)
        state = core.begin_run(Trace([MemoryAccess(vaddr=0x100 * 4096,
                                                   gap=7)]), start_cycle=100)
        assert core.step(state)
        assert kernel.system.sim_clock.now == state.cycle == 107

    def test_window_hides_independent_misses(self):
        """More MSHRs / bigger window => fewer stall cycles."""
        def run_with(window, mshrs):
            kernel, process = machine(pages=128)
            core = Core(kernel.system, process.asid, window=window,
                        mshrs=mshrs)
            trace = Trace.sequential(0x100 * 4096, 128, stride=4096, gap=1)
            return core.run(trace)

        narrow = run_with(window=2, mshrs=1)
        wide = run_with(window=64, mshrs=16)
        assert wide.cycles < narrow.cycles

    def test_serializing_event_drains_window(self):
        kernel, process = machine()
        core = Core(kernel.system, process.asid)
        # Install a CoW handler that marks the event serializing.
        def handler(system, asid, vaddr, chunk, core_id, translation):
            system.note_serializing_event()
            return 5000
        kernel.system.cow_handler = handler
        kernel.system.update_mapping(process.asid, 0x100, cow=True,
                                     writable=False)
        trace = Trace([MemoryAccess(vaddr=0x100 * 4096, write=True)])
        stats = core.run(trace)
        assert stats.faults_served == 1
        assert stats.cycles >= 5000

    def test_write_data_lands_in_memory_image(self):
        kernel, process = machine()
        core = Core(kernel.system, process.asid)
        trace = Trace([MemoryAccess(vaddr=0x100 * 4096 + 16, write=True,
                                    size=4, data=b"WXYZ")])
        core.run(trace)
        data, _ = kernel.system.read(process.asid, 0x100 * 4096 + 16, 4)
        assert data == b"WXYZ"


class TestZipfTrace:
    def test_stays_in_region(self):
        trace = Trace.zipf_pages(0x1000 * 4096, pages=16, count=500, seed=1)
        for access in trace:
            assert 0x1000 * 4096 <= access.vaddr < 0x1010 * 4096

    def test_is_skewed(self):
        trace = Trace.zipf_pages(0, pages=64, count=2000, skew=1.2, seed=2)
        counts = {}
        for access in trace:
            counts[access.vaddr // 4096] = counts.get(access.vaddr // 4096,
                                                      0) + 1
        ranked = sorted(counts.values(), reverse=True)
        # The hottest page gets far more than a uniform share.
        assert ranked[0] > 3 * (2000 / 64)

    def test_higher_skew_is_hotter(self):
        def top_share(skew):
            trace = Trace.zipf_pages(0, pages=64, count=2000, skew=skew,
                                     seed=3)
            counts = {}
            for access in trace:
                page = access.vaddr // 4096
                counts[page] = counts.get(page, 0) + 1
            return max(counts.values()) / 2000

        assert top_share(2.0) > top_share(0.8)

    def test_needs_a_page(self):
        with pytest.raises(ValueError):
            Trace.zipf_pages(0, pages=0, count=1)
