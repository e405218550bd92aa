"""The paper's primary contribution: the page-overlay virtual memory
framework (Sections 2-4)."""

from .address import (LINE_SIZE, LINES_PER_PAGE, PAGE_SIZE, AddressError,
                      PhysicalLocation, compose, decompose_overlay_address,
                      is_overlay_address, line_address, line_index,
                      line_offset, line_tag_of, overlay_address,
                      overlay_page_number, page_address, page_number,
                      page_offset, tag_is_overlay)
from .coherence import CoherenceNetwork
from .framework import (CowWriteFault, OverlaySystem, default_cow_handler,
                        PROMOTE_ACTIONS)
from .mmu import MMU, MemoryController
from .obitvector import OBitVector
from .omt import OMTCache, OMTEntry, OverlayMappingTable
from .oms import (OverlayMemoryStore, OutOfOverlayMemory, Segment,
                  SEGMENT_SIZES, data_slot_capacity, smallest_segment_for)
from .page_table import PTE, PageFault, PageTable, PageTableError

__all__ = [
    "AddressError", "CoherenceNetwork", "CowWriteFault", "LINE_SIZE",
    "LINES_PER_PAGE", "MMU", "MemoryController", "OBitVector", "OMTCache",
    "OMTEntry", "OutOfOverlayMemory", "OverlayMappingTable",
    "OverlayMemoryStore", "OverlaySystem", "PAGE_SIZE", "PROMOTE_ACTIONS",
    "PTE", "PageFault", "PageTable", "PageTableError", "PhysicalLocation",
    "SEGMENT_SIZES", "Segment", "compose",
    "data_slot_capacity", "decompose_overlay_address", "default_cow_handler",
    "is_overlay_address", "line_address", "line_index", "line_offset",
    "line_tag_of", "overlay_address", "overlay_page_number", "page_address",
    "page_number", "page_offset", "smallest_segment_for", "tag_is_overlay",
]
