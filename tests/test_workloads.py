"""Tests for the synthetic SPEC-like workload generators."""

import pytest

from repro.core.address import LINES_PER_PAGE, PAGE_SIZE, line_index, page_number
from repro.workloads.spec_like import (BENCHMARKS, TYPE_ORDER,
                                       measurement_trace, warmup_trace)

BASE_VPN = 0x400


class TestSuiteStructure:
    def test_fifteen_benchmarks_three_types(self):
        assert len(BENCHMARKS) == 15
        by_type = {1: 0, 2: 0, 3: 0}
        for profile in BENCHMARKS.values():
            by_type[profile.type_id] += 1
        assert by_type == {1: 5, 2: 5, 3: 5}

    def test_type_order_matches_paper_grouping(self):
        assert len(TYPE_ORDER) == 15
        types = [BENCHMARKS[name].type_id for name in TYPE_ORDER]
        assert types == sorted(types)

    def test_type_structure_parameters(self):
        for profile in BENCHMARKS.values():
            if profile.type_id == 1:
                assert profile.write_pages <= 16
            elif profile.type_id == 2:
                # Almost all lines of each written page are updated.
                assert profile.lines_per_page >= 48
            else:
                # Only a few lines per written page.
                assert profile.lines_per_page <= 10

    def test_cactus_is_the_clustered_writer(self):
        assert BENCHMARKS["cactus"].clustered_writes
        assert not BENCHMARKS["lbm"].clustered_writes


class TestTraceGeneration:
    @pytest.mark.parametrize("name", ["hmmer", "cactus", "mcf"])
    def test_trace_stays_in_footprint(self, name):
        profile = BENCHMARKS[name]
        trace = measurement_trace(profile, BASE_VPN)
        low = BASE_VPN * PAGE_SIZE
        high = low + profile.footprint_pages * PAGE_SIZE
        for access in trace:
            assert low <= access.vaddr < high

    def test_scale_past_the_footprint_is_refused(self):
        """mcf at scale 4 asks for 2,240 written pages of 2,048: a clear
        error naming the benchmark and the largest valid scale."""
        profile = BENCHMARKS["mcf"]
        with pytest.raises(ValueError, match=r"mcf: scale=4 asks for 2240 "
                           r"written pages .* largest valid scale is 3\.657"):
            measurement_trace(profile, BASE_VPN, scale=4)
        largest = measurement_trace(profile, BASE_VPN, scale=3.657)
        written = {page_number(access.vaddr)
                   for access in largest if access.write}
        assert len(written) == profile.footprint_pages

    @pytest.mark.parametrize("name", ["bwaves", "soplex", "omnet"])
    def test_write_working_set_matches_profile(self, name):
        profile = BENCHMARKS[name]
        trace = measurement_trace(profile, BASE_VPN)
        pages = {}
        for access in trace:
            if access.write:
                page = page_number(access.vaddr)
                pages.setdefault(page, set()).add(line_index(access.vaddr))
        assert len(pages) == profile.write_pages
        for lines in pages.values():
            assert len(lines) == min(profile.lines_per_page, LINES_PER_PAGE)

    def test_read_fraction_respected(self):
        profile = BENCHMARKS["soplex"]
        trace = measurement_trace(profile, BASE_VPN)
        reads = sum(1 for access in trace if not access.write)
        observed = reads / len(trace)
        assert observed == pytest.approx(profile.read_fraction, abs=0.05)

    def test_clustered_schedule_groups_page_writes(self):
        profile = BENCHMARKS["cactus"]
        trace = measurement_trace(profile, BASE_VPN)
        writes = [page_number(a.vaddr) for a in trace if a.write]
        # Page switches: clustered => about one switch per page.
        switches = sum(1 for a, b in zip(writes, writes[1:]) if a != b)
        assert switches <= profile.write_pages + 1

    def test_scattered_schedule_interleaves_pages(self):
        profile = BENCHMARKS["lbm"]
        trace = measurement_trace(profile, BASE_VPN)
        writes = [page_number(a.vaddr) for a in trace if a.write]
        switches = sum(1 for a, b in zip(writes, writes[1:]) if a != b)
        assert switches > profile.write_pages * 10

    def test_scale_parameter(self):
        profile = BENCHMARKS["mcf"]
        full = measurement_trace(profile, BASE_VPN, scale=1.0)
        half = measurement_trace(profile, BASE_VPN, scale=0.5)
        assert 0.4 < len(half) / len(full) < 0.6

    def test_warmup_trace_is_read_mostly(self):
        profile = BENCHMARKS["hmmer"]
        trace = warmup_trace(profile, BASE_VPN, accesses=1000)
        writes = sum(1 for access in trace if access.write)
        assert writes < 0.3 * len(trace)

    def test_deterministic_by_seed(self):
        profile = BENCHMARKS["astar"]
        a = measurement_trace(profile, BASE_VPN, seed=3)
        b = measurement_trace(profile, BASE_VPN, seed=3)
        assert [x.vaddr for x in a] == [x.vaddr for x in b]
