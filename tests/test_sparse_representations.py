"""Tests for the three sparse representations: dense, CSR, overlay."""

import struct

import numpy as np
import pytest

from repro.core.address import PAGE_SIZE
from repro.osmodel.kernel import VPN_BITS, Kernel
from repro.sparse.csr import CSRMatrix
from repro.sparse.dense import DenseMatrix
from repro.sparse.matrix_gen import generate_with_locality, random_uniform
from repro.sparse.overlay_rep import OverlaySparseMatrix
from repro.sparse.pattern import MatrixPattern
from repro.sparse.spmv import (MATRIX_BASE_VPN, X_BASE_VPN, _build_vectors,
                               ideal_memory_bytes, run_spmv)


@pytest.fixture
def matrix():
    return generate_with_locality(32, 256, nnz=300, locality=3.0, seed=5)


@pytest.fixture
def x(matrix):
    return np.random.RandomState(0).rand(matrix.cols)


class TestCSR:
    def test_arrays_match_scipy(self, matrix):
        csr = CSRMatrix(matrix)
        ref = matrix.to_scipy()
        assert csr.values == list(ref.data)
        assert csr.col_idx == list(ref.indices)
        assert csr.row_ptr == list(ref.indptr)

    def test_multiply_matches_numpy(self, matrix, x):
        csr = CSRMatrix(matrix)
        assert np.allclose(csr.multiply(x), matrix.to_numpy() @ x)

    def test_memory_is_12_bytes_per_nnz_plus_rowptr(self, matrix):
        csr = CSRMatrix(matrix)
        expected = matrix.nnz * 12 + (matrix.rows + 1) * 4
        assert csr.memory_bytes() == expected

    def test_insert_shifts_arrays(self, matrix):
        csr = CSRMatrix(matrix)
        nnz = len(csr.values)
        cost = csr.insert(0, 7, 9.0)
        assert len(csr.values) == nnz + 1
        assert cost > 0
        assert csr.pattern.get(0, 7) == 9.0
        ref = csr.pattern.to_scipy()
        assert csr.values == list(ref.data)

    def test_insert_existing_updates_in_place(self):
        m = MatrixPattern(rows=2, cols=8)
        m.set(0, 3, 1.0)
        csr = CSRMatrix(m)
        cost = csr.insert(0, 3, 2.0)
        assert cost == 0
        assert csr.values == [2.0]

    def test_insert_cost_grows_toward_matrix_start(self, matrix):
        csr = CSRMatrix(matrix)
        early = csr.insert_cost_elements(0)
        late = csr.insert_cost_elements(matrix.rows - 1)
        assert early > late

    def test_build_places_arrays_in_memory(self, matrix):
        kernel = Kernel()
        process = kernel.create_process()
        csr = CSRMatrix(matrix)
        csr.build(kernel, process, MATRIX_BASE_VPN)
        import struct
        raw, _ = kernel.system.read(process.asid, csr.values_vaddr, 8)
        assert struct.unpack("<d", raw)[0] == csr.values[0]


class TestDense:
    def test_multiply_matches_numpy(self, matrix, x):
        dense = DenseMatrix(matrix)
        assert np.allclose(dense.multiply(x), matrix.to_numpy() @ x)

    def test_memory_is_full_footprint(self, matrix):
        dense = DenseMatrix(matrix)
        raw = matrix.rows * matrix.cols * 8
        assert dense.memory_bytes() >= raw
        assert dense.memory_bytes() % PAGE_SIZE == 0

    def test_columns_must_align_to_lines(self):
        with pytest.raises(ValueError):
            DenseMatrix(MatrixPattern(rows=4, cols=10))

    def test_trace_touches_every_line(self, matrix):
        dense = DenseMatrix(matrix)
        trace = dense.spmv_trace(0, 0x1000000)
        matrix_reads = [a for a in trace
                        if not a.write and a.vaddr < 0x800000]
        assert len(matrix_reads) >= dense.total_lines


class TestOverlayRepresentation:
    def build(self, matrix):
        kernel = Kernel()
        process = kernel.create_process()
        rep = OverlaySparseMatrix(matrix)
        rep.build(kernel, process, MATRIX_BASE_VPN)
        return kernel, process, rep

    def test_simulator_multiply_matches_numpy(self, matrix, x):
        """The end-to-end data fidelity check: SpMV computed from the
        simulated memory equals the analytic product."""
        _, _, rep = self.build(matrix)
        assert np.allclose(rep.multiply_in_simulator(x),
                           matrix.to_numpy() @ x)

    def test_all_pages_share_one_zero_frame(self, matrix):
        kernel, process, rep = self.build(matrix)
        ppns = {process.page_table.entry(vpn).ppn
                for vpn in range(MATRIX_BASE_VPN,
                                 MATRIX_BASE_VPN + rep.npages)}
        assert ppns == {rep.zero_ppn}

    def test_zero_lines_read_zero_through_framework(self, matrix):
        kernel, process, rep = self.build(matrix)
        zero_lines = (set(range(rep.npages * 64))
                      - set(matrix.nonzero_lines()))
        some_zero_line = sorted(zero_lines)[0]
        data, _ = kernel.system.read(
            process.asid, rep.base_vaddr + some_zero_line * 64, 64)
        assert data == bytes(64)

    def test_memory_counts_nonzero_lines_plus_zero_page(self, matrix):
        rep = OverlaySparseMatrix(matrix)
        expected = len(matrix.nonzero_lines()) * 64 + PAGE_SIZE
        assert rep.memory_bytes() == expected

    def test_dynamic_insert_is_one_line(self, matrix, x):
        kernel, process, rep = self.build(matrix)
        # Insert into a previously all-zero line.
        zero_lines = (set(range(rep.npages * 64))
                      - set(matrix.nonzero_lines()))
        flat_line = sorted(zero_lines)[0]
        flat = flat_line * 8
        row, col = flat // matrix.cols, flat % matrix.cols
        added = rep.insert(row, col, 5.0)
        assert added == 1
        assert np.allclose(rep.multiply_in_simulator(x),
                           rep.pattern.to_numpy() @ x)

    def test_insert_into_existing_line_adds_nothing(self, matrix):
        kernel, process, rep = self.build(matrix)
        row, col, _ = next(iter(matrix.entries()))
        assert rep.insert(row, col, 7.5) == 0

    def test_unbuilt_matrix_rejects_simulation_calls(self, matrix, x):
        rep = OverlaySparseMatrix(matrix)
        with pytest.raises(RuntimeError):
            rep.multiply_in_simulator(x)
        with pytest.raises(RuntimeError):
            rep.insert(0, 0, 1.0)


class TestSpMVHarness:
    def test_all_representations_agree(self, x):
        matrix = generate_with_locality(32, 256, nnz=300, locality=4.0,
                                        seed=6)
        results = {name: run_spmv(matrix, name, x, check_result=True)
                   for name in ("dense", "csr", "overlay")}
        ref = results["dense"].y
        for name, result in results.items():
            assert np.allclose(result.y, ref), name

    def test_unknown_representation_rejected(self, matrix):
        with pytest.raises(ValueError):
            run_spmv(matrix, "coo")

    def test_ideal_memory(self, matrix):
        assert ideal_memory_bytes(matrix) == matrix.nnz * 8

    def test_result_fields(self, matrix):
        result = run_spmv(matrix, "csr")
        assert result.cycles > 0
        assert result.instructions > 0
        assert result.cpi > 0
        assert result.matrix == matrix.name
        assert result.memory_bytes == CSRMatrix(matrix).memory_bytes()


def _two_row_matrix():
    """2x1024 doubles = 4 pages; non-zeros on the first and last page."""
    m = MatrixPattern(rows=2, cols=1024)
    m.set(0, 3, 1.5)
    m.set(1, 900, 2.0)
    return m


class TestSharedZeroFrame:
    """``Kernel.map_shared`` maps the overlay matrix onto its zero frame
    in one call; the per-page loop it replaced is the reference."""

    @staticmethod
    def reference_map(kernel, process, vpns, ppn):
        for vpn in vpns:
            kernel.system.map_page(process.asid, vpn, ppn,
                                   writable=False, cow=True)
            kernel.frame_users.setdefault(ppn, set()).add(
                process.asid << VPN_BITS | vpn)

    @pytest.mark.parametrize("overlays_enabled", [True, False])
    def test_bulk_build_matches_per_page_loop(self, matrix, overlays_enabled):
        kernel = Kernel()
        kernel.system.overlays_enabled = overlays_enabled
        process = kernel.create_process()
        rep = OverlaySparseMatrix(matrix)
        rep.build(kernel, process, MATRIX_BASE_VPN)
        vpns = range(MATRIX_BASE_VPN, MATRIX_BASE_VPN + rep.npages)

        ref_kernel = Kernel()
        ref_kernel.system.overlays_enabled = overlays_enabled
        ref_process = ref_kernel.create_process()
        zero = ref_kernel.allocator.allocate()
        self.reference_map(ref_kernel, ref_process, vpns, zero)

        assert rep.zero_ppn == zero
        for vpn in vpns:
            assert (process.page_table.entry(vpn)
                    == ref_process.page_table.entry(vpn))
        assert (process.page_table.entry(vpns[-1]).overlays_enabled
                is overlays_enabled)
        assert (list(process.page_table.mapped_vpns())
                == list(ref_process.page_table.mapped_vpns()))
        assert kernel.frame_users == ref_kernel.frame_users

    def test_map_shared_rejects_an_overlapping_range(self):
        kernel = Kernel()
        process = kernel.create_process()
        kernel.mmap(process, 0x102, 1)
        zero = kernel.allocator.allocate()
        vpns = list(process.page_table.mapped_vpns())
        users = {ppn: set(u) for ppn, u in kernel.frame_users.items()}
        with pytest.raises(ValueError, match="0x102 already mapped"):
            kernel.map_shared(process, range(0x100, 0x104), zero)
        assert list(process.page_table.mapped_vpns()) == vpns
        assert kernel.frame_users == users
        assert process.page_table.entry(0x100) is None
        assert zero not in kernel.frame_users

    def test_map_shared_of_no_pages_changes_nothing(self):
        kernel = Kernel()
        process = kernel.create_process()
        zero = kernel.allocator.allocate()
        in_use = kernel.allocator.frames_in_use
        kernel.map_shared(process, range(0x100, 0x100), zero)
        assert kernel.allocator.frames_in_use == in_use
        assert zero not in kernel.frame_users
        assert len(process.page_table) == 0

    def test_refcount_equals_mapped_pages(self, matrix):
        kernel = Kernel()
        process = kernel.create_process()
        rep = OverlaySparseMatrix(matrix)
        rep.build(kernel, process, MATRIX_BASE_VPN)
        assert len(kernel.frame_users[rep.zero_ppn]) == rep.npages
        # A second mapping range of the same frame adds its own pages.
        kernel.map_shared(process, range(0x9000, 0x9003), rep.zero_ppn)
        assert len(kernel.frame_users[rep.zero_ppn]) == rep.npages + 3
        vpns = [*range(MATRIX_BASE_VPN, MATRIX_BASE_VPN + rep.npages),
                *range(0x9000, 0x9003)]
        assert kernel.frame_users[rep.zero_ppn] == {
            process.asid << VPN_BITS | vpn for vpn in vpns}

    def test_degradation_keeps_zero_pages_zero(self):
        """Promoting the two overlay pages releases two references.  With
        a single reference the first promotion freed the zero frame and
        the second got it back as its new frame, so the untouched pages
        read the last row's values."""
        kernel = Kernel()
        process = kernel.create_process()
        rep = OverlaySparseMatrix(_two_row_matrix())
        rep.build(kernel, process, 0x1000)
        assert rep.npages == 4
        kernel.degrade_to_full_page_cow()
        assert len(kernel.frame_users[rep.zero_ppn]) == 2
        for vpn in (0x1001, 0x1002):
            assert process.page_table.entry(vpn).ppn == rep.zero_ppn
            data, _ = kernel.system.read(process.asid, vpn * PAGE_SIZE,
                                         PAGE_SIZE)
            assert data == bytes(PAGE_SIZE), hex(vpn)
        data, _ = kernel.system.read(process.asid, 0x1003 * PAGE_SIZE
                                     + 388 * 8, 8)
        assert struct.unpack("<d", data) == (2.0,)

    def test_exit_releases_every_reference(self):
        kernel = Kernel()
        process = kernel.create_process()
        rep = OverlaySparseMatrix(_two_row_matrix())
        rep.build(kernel, process, 0x1000)
        in_use = kernel.allocator.frames_in_use
        kernel.exit_process(process)
        assert kernel.allocator.frames_in_use == in_use - 1
        assert rep.zero_ppn not in kernel.frame_users
        assert kernel.allocator.allocate() == rep.zero_ppn


class TestNumpyPacking:
    """The vector and dense packers write the bytes ``struct.pack`` does."""

    @pytest.mark.parametrize("dtype", [np.float64, np.int64, np.float32])
    def test_x_vector_bytes_match_struct(self, dtype):
        cols = 1000  # two pages, the last one partial
        x = ((np.arange(cols) - 700.25) * 3).astype(dtype)
        kernel = Kernel()
        process = kernel.create_process()
        _build_vectors(kernel, process, cols, 4, x)
        expected = struct.pack(f"<{cols}d", *x)
        expected += bytes(-len(expected) % PAGE_SIZE)
        written = b"".join(
            kernel.system.main_memory.read_page(
                process.page_table.entry(vpn).ppn)
            for vpn in (X_BASE_VPN, X_BASE_VPN + 1))
        assert written == expected

    def test_x_vector_length_must_match_columns(self):
        kernel = Kernel()
        process = kernel.create_process()
        with pytest.raises(ValueError, match="columns"):
            _build_vectors(kernel, process, 16, 4, np.ones(15))
        assert len(process.page_table) == 0

    def test_dense_bytes_match_struct(self):
        matrix = generate_with_locality(3, 200, nnz=90, locality=2.0,
                                        seed=4)  # 600 doubles, 2 pages
        kernel = Kernel()
        process = kernel.create_process()
        DenseMatrix(matrix).build(kernel, process, MATRIX_BASE_VPN)
        flat = matrix.to_numpy().reshape(-1)
        expected = struct.pack(f"<{flat.size}d", *flat)
        expected += bytes(-len(expected) % PAGE_SIZE)
        written = b"".join(
            kernel.system.main_memory.read_page(
                process.page_table.entry(vpn).ppn)
            for vpn in (MATRIX_BASE_VPN, MATRIX_BASE_VPN + 1))
        assert written == expected
