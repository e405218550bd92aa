"""Plain-text reporting: an aligned text table (everything prints to a
terminal; no plotting dependencies)."""

from __future__ import annotations

from typing import Sequence


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
