"""The simulation clock — one timeline shared by every component.

The machine previously kept several clocks: ``OverlaySystem.clock`` (a
bare integer), a local ``cycle`` variable inside
:meth:`repro.cpu.core.Core.run`, and a per-core ``cycle`` field in the
multi-core scheduler's run states.  :class:`SimClock` unifies them:

* the clock's ``now`` is the single current simulation time that DRAM
  bank state, write-buffer drains and coherence-port queueing observe;
* each event-driven component (a core, a background engine) holds a
  :class:`ClockCursor` — its own strictly monotonic position on the
  timeline.  An event scheduler repeatedly *focuses* the clock on the
  cursor with the earliest next event (:meth:`SimClock.focus`), which
  may move ``now`` backwards across components while each component's
  own history stays monotonic; ``peak`` records the furthest point any
  component has reached.
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

    def __reduce__(self):
        # Default exception pickling replays ``args`` — here the
        # formatted *message* — into ``__init__``, which expects
        # ``(limit, snapshot)`` and blows up during unpickling.  A
        # worker raising the watchdog error across a process pool would
        # then surface as an opaque BrokenProcessPool instead of the
        # diagnosis it carries.  Rebuild from the real constructor
        # arguments so limit, snapshot and message all survive.
        return (type(self), (self.limit, self.snapshot))


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

    def catch_up_to(self, cycle: int) -> int:
        """Advance to *cycle* if it is ahead; no-op (no error) otherwise."""
        if cycle > self._time:
            self.advance_to(cycle)
        return self._time

    def __repr__(self) -> str:
        return f"ClockCursor({self.name}@{self._time})"


class SimClock:
    """The shared simulation timeline.

    ``advance``/``advance_to`` move the global time monotonically — the
    single-threaded case.  Event-driven schedulers instead keep one
    :class:`ClockCursor` per component and :meth:`focus` the clock on
    whichever cursor acts next; ``peak`` never decreases.
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

    # -- global time --------------------------------------------------------

    @property
    def now(self) -> int:
        return self._now

    @property
    def peak(self) -> int:
        """The furthest cycle any component has reached."""
        return self._peak

    def advance(self, cycles: int) -> int:
        """Move the global time forward by *cycles* (>= 0)."""
        if cycles < 0:
            raise ClockError(f"clock cannot advance by {cycles}")
        return self.advance_to(self._now + cycles)

    def advance_to(self, cycle: int) -> int:
        """Move the global time forward to *cycle*; backwards raises."""
        if cycle < self._now:
            raise ClockError(f"clock at {self._now} cannot rewind to {cycle}")
        self._now = cycle
        self._observe(cycle)
        if HOOKS.active is not None:
            HOOKS.active.emit(cycle, "clock", "advance", None)
        return self._now

    def _observe(self, cycle: int) -> None:
        if cycle > self._peak:
            self._peak = cycle
            # Watchdog site: every time movement funnels through here,
            # so one disarmed comparison guards the whole timeline.
            # Checked only on forward peak motion — event-driven seeks
            # below the peak cannot be the runaway.
            if self._max_cycles is not None and cycle > self._max_cycles:
                raise SimulationHangError(self._max_cycles, {
                    "now": self._now, "peak": self._peak,
                    "cursors": [(cursor.name, cursor.time)
                                for cursor in self._cursors]})
        # Sampling hook site: every observed time movement (global
        # advances, cursor advances, event-driven seeks) funnels through
        # here, so one disarmed check covers the whole timeline.
        if HOOKS.sampler is not None:
            HOOKS.sampler.on_cycle(cycle)

    # -- event-driven views --------------------------------------------------

    def cursor(self, name: str, start: int = None) -> ClockCursor:
        """Create a component cursor starting at *start* (default: now)."""
        cursor = ClockCursor(self, name,
                             self._now if start is None else start)
        self._cursors.append(cursor)
        self._observe(cursor.time)
        return cursor

    def focus(self, cursor: ClockCursor) -> int:
        """Reposition the global time at *cursor* (event-driven switch).

        Switching focus to an earlier component is the one sanctioned
        way ``now`` moves backwards: the scheduler is replaying the
        timeline in event order, and each component's own cursor is
        still monotonic.
        """
        return self.seek(cursor.time)

    def seek(self, cycle: int) -> int:
        """Reposition the global time at *cycle* (see :meth:`focus`)."""
        if cycle < 0:
            raise ClockError(f"cannot seek to negative cycle {cycle}")
        self._now = cycle
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

    def earliest(self, cursors=None) -> ClockCursor:
        """The cursor with the smallest current time (scheduling order)."""
        pool = list(cursors) if cursors is not None else self._cursors
        if not pool:
            raise ClockError("no cursors to schedule")
        return min(pool, key=lambda cursor: cursor.time)

    def __repr__(self) -> str:
        return f"SimClock(now={self._now}, peak={self._peak})"
