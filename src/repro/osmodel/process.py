"""Process abstraction for the OS model.

A process owns an address-space identifier and a page table (held by
the simulated hardware), which is the one record of the pages it has
mapped.  The kernel (:mod:`repro.osmodel.kernel`) manipulates processes;
this module only holds state.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.page_table import PageTable


@dataclass
class Process:
    """One simulated process."""

    pid: int
    asid: int
    page_table: PageTable

    def __repr__(self) -> str:
        return (f"Process(pid={self.pid}, asid={self.asid}, "
                f"pages={len(self.page_table)})")
