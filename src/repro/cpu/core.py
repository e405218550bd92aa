# simlint: hot-path
"""Trace-driven out-of-order core timing model.

The paper evaluates with an event-driven out-of-order core: 2.67 GHz,
single issue, 64-entry instruction window (Table 2).  This model
reproduces those first-order properties from a memory-access trace:

* one instruction issues per cycle (single issue, base CPI 1);
* a memory access occupies a reorder-buffer entry from issue until its
  data returns; the window blocks when the oldest in-flight access is
  more than ``window`` instructions behind the youngest — the classic
  ROB-head-blocking model of memory-level parallelism;
* a bounded number of misses may be outstanding at once (MSHRs).

The window model lives in exactly one place: :meth:`Core.step` advances
one :class:`WindowState` by one memory access.  :meth:`Core.run` drives
a single state to completion; the multi-core scheduler
(:class:`~repro.cpu.multicore.MultiCoreScheduler`) interleaves several
states in event order.  Per-core time is a
:class:`~repro.engine.clock.ClockCursor` on the system's shared
:class:`~repro.engine.clock.SimClock`, so "this core's clock" and "the
system clock the DRAM sees" are views of one timeline rather than
separately maintained integers.

The absolute CPI will not match the authors' simulator, but the
*relative* behaviour the evaluation depends on does: latency on the
critical path (a CoW page copy) stalls the window, while off-critical
path work (lazy overlay allocation) does not; and writes close together
in time overlap while spread-out writes each pay their miss.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Iterator, Optional, Tuple

from .trace import MemoryAccess, Trace
from ..core.address import LINE_SIZE
from ..core.framework import OverlaySystem
from ..engine.clock import ClockCursor, ClockError
from ..engine.stats import merge_blocks
from ..engine.tracing import HOOKS


@dataclass
class CoreStats:
    """Results of one trace run."""

    instructions: int = 0
    cycles: int = 0
    memory_accesses: int = 0
    window_stall_cycles: int = 0
    faults_served: int = 0

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    def merge(self, other: "CoreStats") -> "CoreStats":
        """Accumulate *other*'s raw counters into this one (rates and
        CPI are derived, so they stay consistent after merging)."""
        merge_blocks(self, other)
        return self


@dataclass
class WindowState:
    """One core's in-flight execution state, advanced one access at a
    time by :meth:`Core.step`."""

    core: "Core"
    accesses: Iterator[MemoryAccess]
    cursor: ClockCursor
    start: int
    stats: CoreStats = field(default_factory=CoreStats)
    instr_index: int = 0
    #: In-flight memory operations: (instruction index, cycle it completes).
    inflight: Deque[Tuple[int, int]] = field(default_factory=deque)
    pending: Optional[MemoryAccess] = None
    done: bool = False

    @property
    def cycle(self) -> int:
        """This core's current position on the shared timeline."""
        return self.cursor.time


class Core:
    """A single simulated core bound to one address space.

    Parameters
    ----------
    system:
        The :class:`~repro.core.OverlaySystem` serving this core's
        memory accesses.
    asid:
        Address space the trace's virtual addresses belong to.
    core_id:
        Which of the system's TLBs/MMUs to use.
    window:
        Instruction-window (ROB) size; defaults to the system config's
        ``instruction_window`` (Table 2: 64 entries).
    mshrs:
        Maximum outstanding memory requests.
    """

    __slots__ = ("system", "asid", "core_id", "window", "mshrs")

    def __init__(self, system: OverlaySystem, asid: int, core_id: int = 0,
                 window: Optional[int] = None, mshrs: int = 16):
        self.system = system
        self.asid = asid
        self.core_id = core_id
        self.window = (system.config.instruction_window if window is None
                       else window)
        self.mshrs = mshrs

    # -- the window model, one access at a time ------------------------------

    def begin_run(self, trace: Trace,
                  start_cycle: Optional[int] = None) -> WindowState:
        """Open a :class:`WindowState` for *trace* on the shared clock."""
        start = self.system.clock if start_cycle is None else start_cycle
        if start < 0:
            # The cursor never moves back, so step's seeks stay >= 0.
            raise ClockError(f"cannot start a run at cycle {start}")
        cursor = self.system.sim_clock.cursor(f"core{self.core_id}",
                                              start=start)
        state = WindowState(core=self, accesses=iter(trace), cursor=cursor,
                            start=start)
        state.pending = next(state.accesses, None)
        if state.pending is None:
            state.done = True
        return state

    def step(self, state: WindowState) -> bool:
        """Issue exactly one memory access for *state*.

        Returns False when the trace has drained.  This is the single
        implementation of the window model; single- and multi-core
        drivers differ only in how they interleave calls to it.  The
        clock (and with it the watchdog and the trace hooks) sees each
        cursor move and each seek; with no stall, the cursor move and
        the seek are :meth:`ClockCursor.advance` and
        :meth:`SimClock.seek` inlined.
        """
        access = state.pending
        if access is None:
            access = state.pending = next(state.accesses, None)
            if access is None:
                state.done = True
                return False
        cursor = state.cursor
        stats = state.stats
        inflight = state.inflight
        system = self.system
        clock = system.sim_clock

        # Non-memory instructions issue one per cycle.
        gap = access.gap
        if gap < 0:
            raise ClockError(
                f"cursor {cursor.name!r} cannot advance by {gap}")
        time = cursor._time = cursor._time + gap
        if time > clock._peak:
            # SimClock._observe inlined: past the watchdog limit it is
            # called, to raise with its snapshot.
            if clock._max_cycles is not None and time > clock._max_cycles:
                clock._observe(time)
            clock._peak = time
        if HOOKS.active is not None:
            HOOKS.active.emit(time, "cursor", cursor.name, None)
        instr_index = state.instr_index + gap + 1
        state.instr_index = instr_index

        # Retire anything already complete.
        while inflight and inflight[0][1] <= time:
            inflight.popleft()

        # Window blocking: the ROB head must retire before an
        # instruction `window` younger can issue.
        oldest = instr_index - self.window
        while inflight and inflight[0][0] <= oldest:
            stall_until = inflight.popleft()[1]
            if stall_until > time:
                stats.window_stall_cycles += stall_until - time
                time = cursor.advance_to(stall_until)

        # MSHR limit.
        while len(inflight) >= self.mshrs:
            stall_until = inflight.popleft()[1]
            if stall_until > time:
                stats.window_stall_cycles += stall_until - time
                time = cursor.advance_to(stall_until)

        clock._now = time
        if HOOKS.active is not None:
            HOOKS.active.emit(time, "clock", "seek", None)
        vaddr = access.vaddr
        data = None
        size = access.size
        if access.write:
            data = access.data
            if data is None:
                data = b"\xAB" * size
            size = len(data)
        if 0 < size <= LINE_SIZE - vaddr % LINE_SIZE:
            # One line: straight to the line dispatch, counted as one
            # request, as read/write count it.  A read's data is not
            # needed, so none is assembled.
            if data is None:
                system.stats.reads += 1
            else:
                system.stats.writes += 1
            latency = system.access_line(self.asid, vaddr, data,
                                         self.core_id, time)
        elif data is None:
            latency = system.read(self.asid, vaddr, size,
                                  core=self.core_id)[1]
        else:
            latency = system.write(self.asid, vaddr, data,
                                   core=self.core_id)

        if system._serializing_event:
            system._serializing_event = False
            # A trap (e.g. a software page-fault handler) flushes the
            # pipeline: everything in flight drains, then the handler
            # runs with nothing overlapping it.
            for _, completion in inflight:
                if completion > time:
                    stats.window_stall_cycles += completion - time
                    time = cursor.advance_to(completion)
            inflight.clear()
            stats.window_stall_cycles += latency
            cursor.advance(latency)
            stats.faults_served += 1
        else:
            inflight.append((instr_index, time + latency))
        stats.memory_accesses += 1
        state.pending = None
        return True

    def finish_run(self, state: WindowState) -> int:
        """Close out *state*: drain in-flight accesses into the final
        cycle count and release its cursor.  Returns the drain cycle."""
        drain = state.cursor.time
        for _, completion in state.inflight:
            drain = max(drain, completion)
        state.stats.instructions = state.instr_index
        state.stats.cycles = drain - state.start
        self.system.sim_clock.release(state.cursor)
        return drain

    # -- the single-core driver ----------------------------------------------

    def run(self, trace: Trace, start_cycle: Optional[int] = None) -> CoreStats:
        """Execute *trace*; returns timing statistics.

        By default the run continues from the system clock, so
        back-to-back phases (warm-up, fork, measurement) share one
        timeline — DRAM bank state and write buffers carry over
        coherently.  The system clock is left at the trace's completion
        time.
        """
        state = self.begin_run(trace, start_cycle=start_cycle)
        step = self.step
        while step(state):
            pass
        finish = self.finish_run(state)
        self.system.clock = finish
        return state.stats
