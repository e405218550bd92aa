"""Technique 4: efficient checkpointing (Section 5.3.2).

Overlays capture all memory updates between two checkpoints: every page
is write-protected at the start of an epoch so stores land in overlays,
and taking a checkpoint writes *only the overlays* to the backing store —
a delta, not the dirty pages — before committing them to the physical
pages.  The paper's claim: this reduces checkpoint write bandwidth
versus page-granularity backup, enabling faster and more frequent
checkpoints.

:class:`CheckpointManager` also keeps the per-epoch deltas it shipped to
the "backing store", so a crashed process's memory image can be rebuilt
(``restore_view``) — the property checkpointing exists to provide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..core.address import LINE_SIZE, PAGE_SIZE


@dataclass
class CheckpointRecord:
    """One epoch's delta as written to the backing store."""

    epoch: int
    #: (vpn, line) -> 64B payload
    deltas: Dict[Tuple[int, int], bytes] = field(default_factory=dict)

    @property
    def bytes_written(self) -> int:
        """Backing-store traffic for this checkpoint (overlay lines only)."""
        return len(self.deltas) * LINE_SIZE

    @property
    def dirty_pages(self) -> int:
        return len({vpn for vpn, _ in self.deltas})

    @property
    def page_granularity_bytes(self) -> int:
        """What a page-granularity checkpoint would have written."""
        return self.dirty_pages * PAGE_SIZE


class CheckpointManager:
    """Epoch-based overlay checkpointing for one process."""

    def __init__(self, kernel, process):
        self.kernel = kernel
        self.process = process
        self.records: List[CheckpointRecord] = []
        self._base_image: Dict[int, bytes] = {}
        self._epoch_open = False

    @property
    def epoch(self) -> int:
        return len(self.records)

    # -- epoch control -----------------------------------------------------------

    def begin(self) -> None:
        """Start capturing updates: snapshot the base image once and mark
        every page so stores are redirected into overlays."""
        system = self.kernel.system
        if not self._base_image:
            for vpn in self.process.page_table.mapped_vpns():
                self._base_image[vpn] = system.page_bytes(self.process.asid, vpn)
        for vpn in self.process.page_table.mapped_vpns():
            system.update_mapping(self.process.asid, vpn,
                                  cow=True, writable=False)
        self._epoch_open = True

    def take_checkpoint(self) -> CheckpointRecord:
        """Flush, ship the overlays to the backing store, commit them.

        Returns the record with the delta actually written; the physical
        pages now reflect the epoch's updates and a new epoch begins.
        """
        if not self._epoch_open:
            raise RuntimeError("no open epoch; call begin() first")
        system = self.kernel.system
        asid = self.process.asid
        # Make sure speculative dirty lines have reached overlays/OMS.
        system.hierarchy.flush_dirty()

        record = CheckpointRecord(epoch=self.epoch)
        for vpn in list(self.process.page_table.mapped_vpns()):
            count = system.overlay_line_count(asid, vpn)
            if count == 0:
                continue
            from ..core.address import overlay_page_number
            entry = system.controller.omt.lookup(overlay_page_number(asid, vpn))
            for line in entry.obitvector.lines():
                data = system.line_bytes(asid, vpn, line)
                # Overlay lines can pre-date the epoch (e.g. dedup
                # difference lines).  Those contents are already part of
                # the recovery baseline, so only genuinely changed lines
                # are shipped as deltas.
                if data != self._expected_line(vpn, line):
                    record.deltas[(vpn, line)] = data
            # Fold the delta into the physical page and drop the overlay.
            # A frame shared with other processes (e.g. after
            # deduplication) must not be written through: break the
            # sharing with copy-and-commit instead.
            ppn = self.process.page_table.entry(vpn).ppn
            if len(self.kernel.frame_users[ppn]) > 1:
                new_ppn = self.kernel.allocator.allocate()
                system.promote(asid, vpn, "copy-and-commit", new_ppn=new_ppn)
                self.kernel.note_cow_copy(asid, vpn, ppn, new_ppn)
            else:
                system.promote(asid, vpn, "commit")
        self.records.append(record)
        self.begin()  # next epoch starts immediately
        return record

    def end(self) -> None:
        """Stop capturing: restore normal write permissions."""
        system = self.kernel.system
        for vpn in self.process.page_table.mapped_vpns():
            system.update_mapping(self.process.asid, vpn,
                                  cow=False, writable=True)
        self._epoch_open = False

    def _expected_line(self, vpn: int, line: int) -> bytes:
        """The line's contents as of the last checkpoint (base image plus
        every shipped delta so far)."""
        start = line * LINE_SIZE
        data = self._base_image.get(vpn, bytes(4096))[start:start + LINE_SIZE]
        for record in self.records:
            shipped = record.deltas.get((vpn, line))
            if shipped is not None:
                data = shipped
        return data

    # -- recovery ---------------------------------------------------------------------

    def restore_view(self, up_to_epoch: int) -> Dict[int, bytes]:
        """Rebuild the memory image as of checkpoint *up_to_epoch* from the
        base image plus the shipped deltas (what a recovery would load)."""
        if not 0 <= up_to_epoch <= len(self.records):
            raise IndexError(f"epoch {up_to_epoch} out of range")
        image = {vpn: bytearray(data)
                 for vpn, data in self._base_image.items()}
        for record in self.records[:up_to_epoch]:
            for (vpn, line), payload in record.deltas.items():
                start = line * LINE_SIZE
                image[vpn][start:start + LINE_SIZE] = payload
        return {vpn: bytes(data) for vpn, data in image.items()}

    # -- reporting ----------------------------------------------------------------------

    @property
    def total_bytes_written(self) -> int:
        return sum(record.bytes_written for record in self.records)

    @property
    def total_page_granularity_bytes(self) -> int:
        return sum(record.page_granularity_bytes for record in self.records)

    @property
    def bandwidth_reduction(self) -> float:
        baseline = self.total_page_granularity_bytes
        if baseline == 0:
            return 0.0
        return 1.0 - self.total_bytes_written / baseline
