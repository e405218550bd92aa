"""The simulation clock — one timeline for the whole machine.

:class:`~repro.core.framework.OverlaySystem` creates and owns the one
:class:`SimClock`:

* the clock's ``now`` is the single current simulation time that DRAM
  bank state, write-buffer drains and coherence-port queueing observe;
* each core holds a :class:`ClockCursor` — its own strictly monotonic
  position on the timeline.  The multi-core scheduler steps the core
  whose cursor is earliest, and :meth:`~repro.cpu.core.Core.step`
  seeks the clock to that core's time (:meth:`SimClock.seek`, inlined
  there with :meth:`ClockCursor.advance`), which may
  move ``now`` backwards across cores while each core's own history
  stays monotonic; ``peak`` records the furthest point any core has
  reached.
"""

from __future__ import annotations

from typing import List

from .process_state import register as register_process_state
from .tracing import HOOKS


class ClockError(RuntimeError):
    """Raised when a component tries to move its clock backwards."""


class SimulationHangError(RuntimeError):
    """A run blew through its ``max_sim_cycles`` watchdog limit.

    Carries a ``snapshot`` of the timeline at the moment the limit was
    crossed (the last-progress state: global now/peak and every live
    cursor's position) so a hung run leaves a diagnosis behind instead
    of looping forever.
    """

    def __init__(self, limit: int, snapshot: dict):
        cursors = ", ".join(f"{name}@{time}" for name, time
                            in snapshot.get("cursors", [])) or "none"
        super().__init__(
            f"simulation exceeded max_sim_cycles={limit} "
            f"(now={snapshot.get('now')}, peak={snapshot.get('peak')}, "
            f"cursors: {cursors}); raise the limit with --max-cycles or "
            f"SimClock(max_cycles=...) if the run is legitimately long")
        self.limit = limit
        self.snapshot = snapshot


#: Process-wide default watchdog limit new clocks adopt (None: no limit).
#: The CLI's ``--max-cycles`` flag sets it for the experiments it runs.
_DEFAULT_MAX_CYCLES = None


def _reset_default_max_cycles() -> None:
    global _DEFAULT_MAX_CYCLES
    _DEFAULT_MAX_CYCLES = None


# The default watchdog limit is process-wide mutable state: a run
# inheriting an earlier ``--max-cycles`` would abort work a fresh
# process completes.  Registered so reset_all restores it.
register_process_state(
    "repro.engine.clock._DEFAULT_MAX_CYCLES",
    snapshot=lambda: _DEFAULT_MAX_CYCLES,
    reset=_reset_default_max_cycles)


def set_default_max_cycles(limit) -> None:
    """Set the watchdog limit newly built :class:`SimClock`\\ s inherit.

    ``None`` disables the watchdog (the default).  Existing clocks are
    unaffected; the limit applies at construction time.
    """
    global _DEFAULT_MAX_CYCLES
    if limit is not None and limit <= 0:
        raise ValueError(f"max_sim_cycles must be positive, got {limit}")
    _DEFAULT_MAX_CYCLES = limit


def default_max_cycles():
    """The process-wide default watchdog limit (None: disabled)."""
    return _DEFAULT_MAX_CYCLES


class ClockCursor:
    """One component's strictly monotonic position on a shared timeline."""

    __slots__ = ("name", "_clock", "_time")

    def __init__(self, clock: "SimClock", name: str, start: int = 0):
        self.name = name
        self._clock = clock
        self._time = start

    @property
    def time(self) -> int:
        return self._time

    def advance(self, cycles: int) -> int:
        """Move forward by *cycles* (>= 0); returns the new time."""
        if cycles < 0:
            raise ClockError(f"cursor {self.name!r} cannot advance by {cycles}")
        self._time += cycles
        self._clock._observe(self._time)
        if HOOKS.active is not None:
            HOOKS.active.emit(self._time, "cursor", self.name, None)
        return self._time

    def advance_to(self, cycle: int) -> int:
        """Move forward to *cycle*; moving backwards raises."""
        if cycle < self._time:
            raise ClockError(
                f"cursor {self.name!r} at {self._time} cannot rewind to {cycle}")
        self._time = cycle
        self._clock._observe(self._time)
        if HOOKS.active is not None:
            HOOKS.active.emit(self._time, "cursor", self.name, None)
        return self._time

    def __repr__(self) -> str:
        return f"ClockCursor({self.name}@{self._time})"


class SimClock:
    """The shared simulation timeline.

    Each core keeps one :class:`ClockCursor`, and the clock is
    :meth:`seek`-ed to the cursor's time as the core acts; ``peak``
    never decreases.
    """

    def __init__(self, start: int = 0, max_cycles=None):
        self._now = start
        self._peak = start
        self._cursors: List[ClockCursor] = []
        # Runaway-simulation watchdog: None disables it; the process
        # default comes from set_default_max_cycles (the CLI flag).
        self._max_cycles = (_DEFAULT_MAX_CYCLES if max_cycles is None
                            else max_cycles)
        if self._max_cycles is not None and self._max_cycles <= 0:
            raise ValueError(
                f"max_cycles must be positive, got {self._max_cycles}")

    # -- time ---------------------------------------------------------------

    @property
    def now(self) -> int:
        return self._now

    @property
    def peak(self) -> int:
        """The furthest cycle any component has reached."""
        return self._peak

    def _observe(self, cycle: int) -> None:
        if cycle > self._peak:
            self._peak = cycle
            # Watchdog site: every time movement funnels through here
            # (Core.step inlines the peak update and calls this only
            # past the limit), so one disarmed comparison guards the
            # whole timeline.  Checked only on forward peak motion —
            # event-driven seeks below the peak cannot be the runaway.
            if self._max_cycles is not None and cycle > self._max_cycles:
                raise SimulationHangError(self._max_cycles, {
                    "now": self._now, "peak": self._peak,
                    "cursors": [(cursor.name, cursor.time)
                                for cursor in self._cursors]})

    # -- cursors --------------------------------------------------------------

    def cursor(self, name: str, start: int = None) -> ClockCursor:
        """Create a component cursor starting at *start* (default: now)."""
        cursor = ClockCursor(self, name,
                             self._now if start is None else start)
        self._cursors.append(cursor)
        self._observe(cursor.time)
        return cursor

    def seek(self, cycle: int) -> int:
        """Reposition the global time at *cycle*.

        Backwards included: the scheduler replays the timeline in event
        order, and each core's own cursor is still monotonic.  It
        observes only a seek past ``peak`` (the watchdog's case).
        :meth:`~repro.cpu.core.Core.step` performs this seek inline once
        per access, to the time its cursor has just observed (never
        negative, never past the peak); a change here is made there
        too.
        """
        if cycle < 0:
            raise ClockError(f"cannot seek to negative cycle {cycle}")
        self._now = cycle
        # At or below the peak there is nothing to observe: a core
        # seeks to the time its cursor has just observed.
        if cycle > self._peak:
            self._observe(cycle)
        if HOOKS.active is not None:
            HOOKS.active.emit(cycle, "clock", "seek", None)
        return self._now

    def release(self, cursor: ClockCursor) -> None:
        """Forget *cursor* (its run finished); unknown cursors are a
        no-op so release is safe to call twice."""
        try:
            self._cursors.remove(cursor)
        except ValueError:
            pass

    def __repr__(self) -> str:
        return f"SimClock(now={self._now}, peak={self._peak})"
