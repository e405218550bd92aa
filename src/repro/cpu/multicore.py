"""Event-driven multi-core execution: interleave per-core traces over
the shared memory system.

The paper's evaluation platform is an event-driven multi-core simulator;
this module provides the multi-core half: each core runs its own trace
with the same 64-entry-window timing model as :class:`~repro.cpu.Core`
(one shared implementation — :meth:`~repro.cpu.core.Core.step`), and the
scheduler always advances the core whose
:class:`~repro.engine.clock.ClockCursor` is earliest on the shared
:class:`~repro.engine.clock.SimClock`.  Because every core issues into
the *shared* hierarchy, DRAM banks and coherence network, cross-core
effects emerge naturally: bank contention, shared-L3 interference, and
TLB coherence traffic from overlaying writes on one core reaching the
others.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .core import Core, CoreStats
from .trace import Trace


class MultiCoreScheduler:
    """Run several (core, trace) jobs concurrently on one machine."""

    def __init__(self, system):
        self.system = system

    def run(self, jobs: Sequence[Tuple[Core, Trace]],
            start_cycle: Optional[int] = None) -> List[CoreStats]:
        """Execute every job; returns per-core statistics (job order).

        All cores start at the same cycle; the run ends when every trace
        has drained.  The system clock ends at the global completion
        time.
        """
        base = self.system.clock if start_cycle is None else start_cycle
        states = [core.begin_run(trace, start_cycle=base)
                  for core, trace in jobs]

        while True:
            runnable = [state for state in states if not state.done]
            if not runnable:
                break
            state = min(runnable, key=lambda s: s.cursor.time)
            state.core.step(state)

        finish = base
        for state in states:
            finish = max(finish, state.core.finish_run(state))
        self.system.clock = finish
        return [state.stats for state in states]
