"""Plain-text reporting helpers: a unicode sparkline and an aligned
text table (everything prints to a terminal; no plotting
dependencies)."""

from __future__ import annotations

from typing import Optional, Sequence

#: Eight-level block ramp used by :func:`sparkline`.
SPARK_TICKS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: Optional[int] = None) -> str:
    """A one-line unicode sparkline of *values*.

    Values are scaled to the series' own min..max (a flat series renders
    as all-low ticks); when *width* is given and the series is longer,
    it is downsampled by bucketing (each tick shows its bucket's mean).
    Non-finite values render as spaces.
    """
    series = [float(v) for v in values]
    if not series:
        return ""
    if width is not None and width > 0 and len(series) > width:
        bucketed = []
        for i in range(width):
            lo = i * len(series) // width
            hi = max(lo + 1, (i + 1) * len(series) // width)
            bucket = series[lo:hi]
            bucketed.append(sum(bucket) / len(bucket))
        series = bucketed
    finite = [v for v in series if v == v and v not in (float("inf"),
                                                        float("-inf"))]
    if not finite:
        return " " * len(series)
    low, high = min(finite), max(finite)
    span = high - low
    ticks = []
    for value in series:
        if value != value or value in (float("inf"), float("-inf")):
            ticks.append(" ")
            continue
        if span == 0:
            ticks.append(SPARK_TICKS[0])
            continue
        level = int((value - low) / span * (len(SPARK_TICKS) - 1))
        ticks.append(SPARK_TICKS[level])
    return "".join(ticks)


def table(headers: Sequence[str], rows: Sequence[Sequence[object]],
          title: str = "") -> str:
    """A simple aligned text table."""
    cells = [[str(c) for c in row] for row in rows]
    # Ragged rows (shorter than the header) must not raise; missing
    # cells render empty.
    widths = [max([len(h)] + [len(row[i]) for row in cells
                              if i < len(row)])
              for i, h in enumerate(headers)]
    lines = [title] if title else []
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        padded = list(row[:len(widths)]) + [""] * (len(widths) - len(row))
        lines.append("  ".join(c.ljust(w) for c, w in zip(padded, widths)))
    return "\n".join(lines)
