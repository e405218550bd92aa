"""Unit tests for the DDR3 DRAM timing model."""

from dataclasses import replace

from repro.config import DEFAULT_CONFIG
from repro.mem.dram import DRAM, NUM_BANKS, ROW_BUFFER_BYTES, T_CONTROLLER

#: The tCK-based timings of a Table 2 DRAM.
_TABLE2 = DRAM()
T_CAS, T_RCD, T_RP, T_BURST = (_TABLE2.t_cas, _TABLE2.t_rcd, _TABLE2.t_rp,
                               _TABLE2.t_burst)


class TestRowBuffer:
    def test_first_access_opens_row(self):
        dram = DRAM()
        latency = dram.read(0)
        assert latency == T_RCD + T_BURST + T_CAS + T_CONTROLLER
        assert dram.stats.row_misses == 1

    def test_second_access_same_row_hits(self):
        dram = DRAM()
        dram.read(0)
        latency = dram.read(64, now=1000)
        assert latency == T_BURST + T_CAS + T_CONTROLLER
        assert dram.stats.row_hits == 1

    def test_row_conflict_pays_precharge(self):
        dram = DRAM()
        dram.read(0)
        conflict_addr = ROW_BUFFER_BYTES * NUM_BANKS  # same bank, next row
        latency = dram.read(conflict_addr, now=10000)
        assert latency == T_RP + T_RCD + T_BURST + T_CAS + T_CONTROLLER

    def test_different_banks_are_independent(self):
        dram = DRAM()
        dram.read(0)
        latency = dram.read(ROW_BUFFER_BYTES, now=0)  # bank 1
        assert latency == T_RCD + T_BURST + T_CAS + T_CONTROLLER
        assert dram.stats.row_misses == 2

    def test_row_hit_rate(self):
        dram = DRAM()
        dram.read(0)
        dram.read(64, now=1000)
        dram.read(128, now=2000)
        assert (dram.stats.row_hits, dram.stats.row_misses) == (2, 1)


class TestQueueing:
    def test_busy_bank_delays_later_request(self):
        dram = DRAM()
        first = dram.read(0, now=0)
        second = dram.read(64, now=0)  # issued while bank still busy
        assert second > T_BURST + T_CAS + T_CONTROLLER

    def test_row_hits_pipeline(self):
        """Back-to-back row hits occupy the bank only for the burst: a
        row hit issued with the one before it queues for one burst."""
        dram = DRAM()
        # The row miss frees the bank at T_RCD + T_BURST.
        ready = dram.read(0, now=0) - T_CAS - T_CONTROLLER
        assert dram.read(64, now=ready) == T_BURST + T_CAS + T_CONTROLLER
        assert dram.read(128, now=ready) == (2 * T_BURST + T_CAS
                                             + T_CONTROLLER)


class TestWriteBuffer:
    def test_write_is_cheap_to_enqueue(self):
        dram = DRAM()
        assert dram.write(0) == T_CONTROLLER
        assert dram.pending_writes == 1

    def test_read_forwards_from_write_buffer(self):
        dram = DRAM()
        dram.write(128)
        assert dram.read(130) == T_CONTROLLER  # same line, forwarded

    def test_drain_when_full(self):
        dram = DRAM(replace(DEFAULT_CONFIG, write_buffer_entries=4))
        for i in range(4):
            dram.write(i * 4096)
        assert dram.pending_writes == 0
        assert dram.stats.write_drains == 1

    def test_explicit_drain(self):
        dram = DRAM()
        dram.write(0)
        dram.write(64)
        occupancy = dram.drain_writes(now=0)
        assert occupancy > 0
        assert dram.pending_writes == 0

    def test_drain_empty_is_free(self):
        dram = DRAM()
        assert dram.drain_writes() == 0

    def test_drain_occupies_banks(self):
        dram = DRAM()
        dram.write(0)
        dram.drain_writes(now=0)
        # A read right after the drain queues behind the write burst.
        latency = dram.read(64, now=0)
        assert latency > T_BURST + T_CAS + T_CONTROLLER

    def test_write_buffer_peak_tracked(self):
        dram = DRAM()
        for i in range(10):
            dram.write(i * 4096)
        assert dram.stats.write_buffer_peak == 10

    def test_fr_fcfs_drain_sorts_by_bank_row(self):
        """Drains batch row hits: draining N lines of one row costs less
        than N scattered rows."""
        same_row = DRAM()
        for i in range(8):
            same_row.write(i * 64)
        occupancy_same = same_row.drain_writes()

        scattered = DRAM()
        for i in range(8):
            scattered.write(i * ROW_BUFFER_BYTES * NUM_BANKS)  # bank 0 rows
        occupancy_scattered = scattered.drain_writes()
        assert occupancy_same < occupancy_scattered


class TestAccounting:
    def test_read_write_counts(self):
        dram = DRAM()
        dram.read(0)
        dram.write(64)
        assert dram.stats.reads == 1
        assert dram.stats.writes == 1
        assert dram.stats.accesses == 2
