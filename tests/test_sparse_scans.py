"""The sparse scans against per-entry references.

``MatrixPattern.nonzero_blocks``/``nonzero_lines``, the overlay matrix's
line packing and both SpMV traces are written as single passes over
``data``.  Each is pinned here against a reference built the plain way,
from ``entries()`` and ``get()``, one entry at a time.
"""

import struct

import pytest

from repro.cpu.trace import MemoryAccess
from repro.osmodel.kernel import Kernel
from repro.sparse.csr import CSR_GAP_PER_NNZ, INDEX_BYTES, CSRMatrix
from repro.sparse.matrix_gen import locality_sweep
from repro.sparse.overlay_rep import FMA_GAP_PER_LINE, OverlaySparseMatrix
from repro.sparse.pattern import VALUE_BYTES, VALUES_PER_LINE
from repro.sparse.spmv import MATRIX_BASE_VPN

X_VADDR, Y_VADDR = 0x200000 * 4096, 0x280000 * 4096


def ref_blocks(pattern, block_bytes):
    per_block = max(1, block_bytes // VALUE_BYTES)
    return {pattern.flat_index(row, col) // per_block
            for row, col, _ in pattern.entries()}


def ref_line_bytes(pattern, flat_line):
    values = []
    for flat in range(flat_line * VALUES_PER_LINE,
                      (flat_line + 1) * VALUES_PER_LINE):
        values.append(pattern.get(flat // pattern.cols, flat % pattern.cols))
    return struct.pack(f"<{VALUES_PER_LINE}d", *values)


def ref_overlay_trace(rep):
    lines_per_row = rep.pattern.cols // VALUES_PER_LINE
    accesses, last_row = [], -1
    for flat_line in sorted(ref_blocks(rep.pattern, 64)):
        row = flat_line // lines_per_row
        accesses.append(MemoryAccess(vaddr=rep.base_vaddr + flat_line * 64,
                                     gap=FMA_GAP_PER_LINE))
        accesses.append(MemoryAccess(
            vaddr=X_VADDR + (flat_line % lines_per_row) * 64, gap=0))
        if row != last_row:
            accesses.append(MemoryAccess(vaddr=Y_VADDR + row * VALUE_BYTES,
                                         write=True, gap=1))
            last_row = row
    return accesses


def ref_csr_trace(csr):
    accesses, index = [], 0
    entries = list(csr.pattern.entries())
    for row in range(csr.pattern.rows):
        accesses.append(MemoryAccess(
            vaddr=csr.rowptr_vaddr + row * INDEX_BYTES, size=INDEX_BYTES,
            gap=1))
        row_entries = [entry for entry in entries if entry[0] == row]
        for _, col, _ in row_entries:
            accesses.append(MemoryAccess(
                vaddr=csr.values_vaddr + index * VALUE_BYTES,
                gap=CSR_GAP_PER_NNZ))
            accesses.append(MemoryAccess(
                vaddr=csr.col_vaddr + index * INDEX_BYTES, size=INDEX_BYTES,
                gap=0))
            accesses.append(MemoryAccess(vaddr=X_VADDR + col * VALUE_BYTES,
                                         gap=0))
            index += 1
        if row_entries:
            accesses.append(MemoryAccess(vaddr=Y_VADDR + row * VALUE_BYTES,
                                         write=True, gap=1))
    return accesses


def with_deletions():
    """A sweep matrix after ``set(r, c, 0.0)`` removed entries, one of
    them the last of its row."""
    pattern = locality_sweep(3, rows=16, cols=512, nnz=200, seed=11)[1]
    row = next(pattern.entries())[0]
    for other in list(pattern.data[row]):
        pattern.set(row, other, 0.0)
    assert row not in pattern.data
    second_row = min(pattern.data)
    pattern.set(second_row, max(pattern.data[second_row]), 0.0)
    pattern.name = "deleted-entries"
    return pattern


PATTERNS = [*locality_sweep(4, rows=16, cols=512, nnz=300, seed=3),
            with_deletions()]


@pytest.fixture(params=PATTERNS, ids=[pattern.name for pattern in PATTERNS])
def pattern(request):
    return request.param


def built_overlay(pattern):
    kernel = Kernel()
    process = kernel.create_process()
    rep = OverlaySparseMatrix(pattern)
    rep.build(kernel, process, MATRIX_BASE_VPN)
    return rep


class TestPatternScans:
    @pytest.mark.parametrize("block_bytes", [64, 4096])
    def test_nonzero_blocks(self, pattern, block_bytes):
        assert (pattern.nonzero_blocks(block_bytes)
                == len(ref_blocks(pattern, block_bytes)))

    def test_nonzero_lines(self, pattern):
        assert pattern.nonzero_lines() == sorted(ref_blocks(pattern, 64))


class TestOverlayScans:
    def test_line_bytes(self, pattern):
        rep = OverlaySparseMatrix(pattern)
        for flat_line in sorted(ref_blocks(pattern, 64)) + [0, 7]:
            assert (rep._line_bytes(flat_line)
                    == ref_line_bytes(pattern, flat_line))

    def test_spmv_trace(self, pattern):
        rep = built_overlay(pattern)
        assert (rep.spmv_trace(X_VADDR, Y_VADDR).accesses
                == ref_overlay_trace(rep))

    def test_scans_after_insert(self):
        pattern = locality_sweep(3, rows=16, cols=512, nnz=200, seed=5)[0]
        rep = built_overlay(pattern)
        row, col, _ = next(pattern.entries())
        rep.insert(row, col, -1.0)       # an update in place
        rep.insert(3, 9, 2.5)            # a new value
        assert pattern.nonzero_lines() == sorted(ref_blocks(pattern, 64))
        flat_line = pattern.flat_index(3, 9) // VALUES_PER_LINE
        assert (rep._line_bytes(flat_line)
                == ref_line_bytes(pattern, flat_line))
        assert (rep.spmv_trace(X_VADDR, Y_VADDR).accesses
                == ref_overlay_trace(rep))


class TestCSRScan:
    def test_spmv_trace(self, pattern):
        kernel = Kernel()
        process = kernel.create_process()
        csr = CSRMatrix(pattern)
        csr.build(kernel, process, MATRIX_BASE_VPN)
        assert csr.spmv_trace(X_VADDR, Y_VADDR).accesses == ref_csr_trace(csr)
