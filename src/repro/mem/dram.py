# simlint: hot-path
"""DDR3-1066 DRAM timing model with FR-FCFS-style write drains — Table 2.

Configuration reproduced from the paper: DDR3-1066 [28], one channel, one
rank, eight banks, 8B data bus, burst length 8 (one 64B line per burst),
8KB row buffer per bank, open-row policy, and a 64-entry write buffer
drained when full (FR-FCFS [34] batching of writes).

Timing is expressed in CPU cycles at 2.67 GHz.  DDR3-1066 runs its
command clock at 533 MHz (tCK = 1.875 ns ≈ 5 CPU cycles); with 7-7-7
timings, tCAS = tRCD = tRP = 7 tCK ≈ 35 CPU cycles, and a BL8 burst on
the 8B bus takes 4 tCK ≈ 20 CPU cycles.

The tCK-based timings scale with the machine config's
``cpu_cycles_per_tck`` and are kept as per-instance ints.  The model is
first-order: per-bank open-row state plus a per-bank
``ready_at`` cycle capturing queueing, which is what the paper's
copy-bandwidth argument (copies consume bandwidth other accesses need)
requires.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .stats import DRAMStats
from ..config import DEFAULT_CONFIG, SystemConfig
from ..engine.component import Component
from ..engine.tracing import HOOKS

#: Fixed controller pipeline overhead per request.
T_CONTROLLER = 10

ROW_BUFFER_BYTES = 8192
NUM_BANKS = 8


class _Bank:
    __slots__ = ("open_row", "ready_at")

    def __init__(self, open_row: int = -1, ready_at: int = 0):
        self.open_row = open_row
        self.ready_at = ready_at


class DRAM(Component):
    """One channel of DDR3-1066 with open-row policy and a write buffer."""

    def __init__(self, config: Optional[SystemConfig] = None,
                 parent: Optional[Component] = None):
        super().__init__("dram", parent=parent)
        config = config or DEFAULT_CONFIG
        self.write_buffer_capacity = config.write_buffer_entries
        tck = config.cpu_cycles_per_tck
        #: Column-access strobe latency (7 tCK).
        self.t_cas = 7 * tck
        #: Row-to-column delay (7 tCK).
        self.t_rcd = 7 * tck
        #: Row precharge (7 tCK).
        self.t_rp = 7 * tck
        #: BL8 burst on the 8B-wide bus: 4 tCK for 64 bytes.
        self.t_burst = 4 * tck
        self.stats = DRAMStats()
        self.stats_scope.own_block(self.stats)
        self._banks: List[_Bank] = [_Bank() for _ in range(NUM_BANKS)]
        self._write_buffer: Dict[int, int] = {}  # line addr -> bank

    # -- public interface ------------------------------------------------------

    def read(self, address: int, now: int = 0) -> int:
        """Read the 64B line at *address*; return latency in CPU cycles.

        A read that hits the write buffer is forwarded at controller
        latency — the FR-FCFS controller prioritises row-hit reads and
        services them around buffered writes.
        """
        stats = self.stats
        stats.reads += 1
        line = address & ~63
        if line in self._write_buffer:
            return T_CONTROLLER
        row_index = address // ROW_BUFFER_BYTES
        bank = self._banks[row_index % NUM_BANKS]
        row = row_index // NUM_BANKS
        # Row hits pipeline: the column-access latency (tCAS) of
        # back-to-back hits overlaps, so the bank is occupied for only
        # the burst time while the request's own latency still includes
        # tCAS.  Row misses occupy the bank for the full
        # activate/precharge sequence.
        ready = bank.ready_at
        start = now if now > ready else ready
        if bank.open_row == row:
            stats.row_hits += 1
            occupancy = self.t_burst
        elif bank.open_row == -1:
            stats.row_misses += 1
            occupancy = self.t_rcd + self.t_burst
        else:
            stats.row_misses += 1
            occupancy = self.t_rp + self.t_rcd + self.t_burst
        bank.open_row = row
        bank.ready_at = start + occupancy
        stats.busy_cycles += occupancy
        done = start + occupancy + self.t_cas
        # Fault-injection site: a transient bit error on the read burst.
        # The installed ECC model decides the outcome — SECDED corrects
        # in the controller pipeline, detect-only parity retries the
        # access — and returns the extra latency it charges.
        if HOOKS.faults is not None:
            return done - now + T_CONTROLLER + HOOKS.faults.on_dram_read(
                address)
        return done - now + T_CONTROLLER

    def write(self, address: int, now: int = 0) -> int:
        """Buffer a 64B line write; returns the (small) enqueue latency.

        Writes are not on the critical path: they sit in the write buffer
        until it fills, then the controller drains it in one batch
        (drain-when-full, Table 2), occupying banks and thereby delaying
        subsequent reads — which is how write bandwidth pressure becomes
        visible to the workload.
        """
        stats = self.stats
        stats.writes += 1
        buffer = self._write_buffer
        buffer[address & ~63] = (address // ROW_BUFFER_BYTES) % NUM_BANKS
        pending = len(buffer)
        if pending > stats.write_buffer_peak:
            stats.write_buffer_peak = pending
        if pending >= self.write_buffer_capacity:
            self.drain_writes(now)
        return T_CONTROLLER

    def drain_writes(self, now: int = 0) -> int:
        """Drain the whole write buffer; returns cycles of bank occupancy.

        FR-FCFS batching: drains are sorted by (bank, row) so row hits are
        maximised, as a real FR-FCFS scheduler would.
        """
        buffer = self._write_buffer
        if not buffer:
            return 0
        stats = self.stats
        stats.write_drains += 1
        banks = self._banks
        occupancy = 0
        # Each line as (bank, line address), sorted: within a bank, line
        # order is row order, and lines of one row are serviced alike.
        # Each line is serviced as a read is (see :meth:`read`); the
        # drain occupies its bank for the busy time plus tCAS.
        for bank_index, line in sorted(zip(buffer.values(), buffer)):
            bank = banks[bank_index]
            row = line // ROW_BUFFER_BYTES // NUM_BANKS
            if bank.open_row == row:
                stats.row_hits += 1
                busy = self.t_burst
            elif bank.open_row == -1:
                stats.row_misses += 1
                busy = self.t_rcd + self.t_burst
            else:
                stats.row_misses += 1
                busy = self.t_rp + self.t_rcd + self.t_burst
            ready = bank.ready_at
            bank.open_row = row
            bank.ready_at = (now if now > ready else ready) + busy
            stats.busy_cycles += busy
            occupancy += busy + self.t_cas
        buffer.clear()
        return occupancy

    @property
    def pending_writes(self) -> int:  # simlint: disable=SL007 tests read it
        return len(self._write_buffer)
