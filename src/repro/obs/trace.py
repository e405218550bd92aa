"""The event recorder behind the engine's trace hooks.

:class:`Tracer` is a :class:`~repro.engine.tracing.TraceSink` backed by
a bounded ring buffer (a ``deque(maxlen=...)``): tracing a long run
keeps the **last** *capacity* events and counts what it dropped, so an
armed tracer can never grow without bound.  Events are timestamped with
the simulated cycle (hooks that have no clock access — calls from the
hierarchy to the memory controller, component events — are back-filled
with the last clock time the sink observed), which keeps a traced run
byte-identical across reruns with the same seed.

Two export formats:

* **JSONL** (:meth:`Tracer.to_jsonl`) —
  one event object per line, the grep/diff-friendly archival form;
* **Chrome trace format** (:meth:`Tracer.chrome_trace` /
  :meth:`Tracer.write_chrome_trace`) — a ``{"traceEvents": [...]}``
  document that loads directly into ``chrome://tracing`` (or Perfetto),
  with one simulated cycle mapped to one microsecond and each event
  category on its own track.  Events carrying a ``latency`` payload
  become complete (``"ph": "X"``) slices with that duration; the rest
  are instants.
"""

from __future__ import annotations

import json
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

from ..engine import tracing

#: Default ring-buffer capacity: enough for every event of the bundled
#: harness runs while bounding a traced ``python -m repro all``.
DEFAULT_CAPACITY = 65536


@dataclass(frozen=True)
class TraceEvent:
    """One recorded engine event."""

    seq: int                     #: global emission order (0-based)
    time: int                    #: simulated cycle
    category: str                #: "clock", "cursor", "hierarchy", "tlb", ...
    name: str                    #: event name within the category
    args: Optional[Dict[str, Any]] = None

    def to_json_obj(self) -> Dict[str, Any]:
        obj: Dict[str, Any] = {"seq": self.seq, "ts": self.time,
                               "cat": self.category, "name": self.name}
        if self.args is not None:
            obj["args"] = self.args
        return obj


class Tracer(tracing.TraceSink):
    """A bounded, deterministic recorder of engine trace events."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity <= 0:
            raise ValueError(f"tracer capacity must be positive: {capacity}")
        self.capacity = capacity
        self._events: deque = deque(maxlen=capacity)
        self._seq = 0
        self._last_time = 0
        self.dropped = 0

    # -- the sink interface --------------------------------------------------

    def emit(self, time: Optional[int], category: str, name: str,
             args: Optional[Dict[str, Any]] = None) -> None:
        if time is None:
            time = self._last_time
        else:
            self._last_time = time
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(TraceEvent(self._seq, time, category, name, args))
        self._seq += 1

    # -- inspection ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def clear(self) -> None:
        self._events.clear()
        self.dropped = 0

    # -- JSONL export --------------------------------------------------------

    def to_jsonl(self) -> str:  # simlint: disable=SL007 tests hash it
        """One compact JSON object per event, newline-separated."""
        return "\n".join(json.dumps(event.to_json_obj(), sort_keys=True,
                                    separators=(",", ":"))
                         for event in self._events)

    # -- Chrome trace format -------------------------------------------------

    def chrome_trace(self) -> Dict[str, Any]:
        """The retained events as a ``chrome://tracing`` document.

        One simulated cycle maps to one microsecond of trace time; each
        category gets its own ``tid`` (in order of first appearance, so
        the mapping is deterministic).
        """
        tids: Dict[str, int] = {}
        trace_events: List[Dict[str, Any]] = []
        for event in self._events:
            tid = tids.setdefault(event.category, len(tids) + 1)
            record: Dict[str, Any] = {
                "name": event.name, "cat": event.category,
                "ts": event.time, "pid": 0, "tid": tid,
            }
            latency = (event.args or {}).get("latency")
            if isinstance(latency, (int, float)) and not isinstance(
                    latency, bool) and latency >= 0:
                record["ph"] = "X"
                record["dur"] = latency
            else:
                record["ph"] = "i"
                record["s"] = "t"
            if event.args:
                record["args"] = event.args
            trace_events.append(record)
        return {
            "traceEvents": trace_events,
            "displayTimeUnit": "ms",
            "otherData": {
                "dropped_events": self.dropped,
                "time_unit": "1 trace us = 1 simulated cycle",
            },
        }

    def write_chrome_trace(self, path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.chrome_trace(), sort_keys=True))
        return path

    def __repr__(self) -> str:
        return (f"Tracer({len(self._events)}/{self.capacity} events, "
                f"{self.dropped} dropped)")


@contextmanager
def tracing_session(capacity: int = DEFAULT_CAPACITY,
                    tracer: Optional[Tracer] = None):
    """Arm a :class:`Tracer` for the enclosed block and disarm it after.

    ::

        with tracing_session() as tracer:
            run_experiment()
        tracer.write_chrome_trace("results/run.trace.json")
    """
    sink = tracer if tracer is not None else Tracer(capacity)
    tracing.install(sink)
    try:
        yield sink
    finally:
        tracing.uninstall()
