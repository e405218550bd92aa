# simlint: hot-path
"""The overlay bit vector (OBitVector).

Section 3.1 (Challenge 1): to decide whether an accessed cache line lives
in the overlay or the regular physical page, each virtual page carries a
64-bit vector with one bit per cache line.  The bit vector is cached in the
TLB so the check does not delay the L1 access.

The vector is a small value type.  It is deliberately immutable-friendly:
mutating methods return nothing and operate in place, while ``copy`` and
the set-algebra helpers produce fresh vectors, which keeps TLB-entry
snapshotting (Section 4.3.3) cheap and explicit.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .address import LINES_PER_PAGE
from ..engine.tracing import HOOKS


class OBitVector:
    """One bit per cache line of a virtual page; set = line is in overlay."""

    __slots__ = ("_bits",)

    #: Width of the vector in bits (64 lines per 4KB page).
    WIDTH = LINES_PER_PAGE

    def __init__(self, bits: int = 0):
        if not 0 <= bits < (1 << self.WIDTH):
            raise ValueError(f"bit pattern {bits:#x} wider than {self.WIDTH} bits")
        self._bits = bits

    @classmethod
    def from_lines(  # simlint: disable=SL007 test oracle
            cls, lines: Iterable[int]) -> "OBitVector":
        """Build a vector with the given line indices set."""
        bits = 0
        for line in lines:
            cls._check(line)
            bits |= 1 << line
        return cls(bits)

    @classmethod
    def full(cls) -> "OBitVector":
        """Return a vector with every line mapped to the overlay."""
        return cls((1 << cls.WIDTH) - 1)

    @staticmethod
    def _check(line: int) -> None:
        if not 0 <= line < OBitVector.WIDTH:
            raise IndexError(f"line index {line} out of range 0..{OBitVector.WIDTH - 1}")

    # -- queries ----------------------------------------------------------

    def is_set(self, line: int) -> bool:
        """Return True when *line* is mapped to the overlay."""
        self._check(line)
        return bool(self._bits >> line & 1)

    def __contains__(self, line: int) -> bool:
        return self.is_set(line)

    def count(self) -> int:
        """Number of lines currently mapped to the overlay."""
        return bin(self._bits).count("1")

    def is_empty(self) -> bool:
        return self._bits == 0

    def lines(self) -> Iterator[int]:
        """Iterate over set line indices in increasing order."""
        bits = self._bits
        line = 0
        while bits:
            if bits & 1:
                yield line
            bits >>= 1
            line += 1

    @property
    def raw(self) -> int:
        """The underlying 64-bit pattern (for OMT entries and TLB fills)."""
        return self._bits

    # -- mutation ---------------------------------------------------------

    def set(self, line: int) -> None:
        """Mark *line* as present in the overlay."""
        self._check(line)
        self._bits |= 1 << line

    def clear(self, line: int) -> None:
        """Mark *line* as absent from the overlay."""
        self._check(line)
        self._bits &= ~(1 << line)

    def clear_all(self) -> None:
        """Reset the vector — used when an overlay is committed/discarded
        (Section 4.3.4)."""
        self._bits = 0

    # -- value semantics ---------------------------------------------------

    def copy(self) -> "OBitVector":
        vector = OBitVector(self._bits)
        # Fault-injection site: a copied vector models the bit vector in
        # flight to a TLB/OMT-cache snapshot; a transient error corrupts
        # the copy while the authoritative vector stays intact.
        if HOOKS.faults is not None:
            HOOKS.faults.on_obitvector_copy(vector)
        return vector

    def __eq__(self, other: object) -> bool:
        if isinstance(other, OBitVector):
            return self._bits == other._bits
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._bits)

    def __len__(self) -> int:
        return self.count()

    def __repr__(self) -> str:
        return f"OBitVector({self._bits:#018x})"
