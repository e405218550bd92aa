"""SpMV execution harness: run one y = A·x iteration of any
representation on a fresh simulated machine and report cycles + memory.

This is the engine behind Figure 10 (overlay vs CSR across matrices
sorted by L) and the Section 5.2 sparsity sweep (overlay vs dense).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .csr import CSRMatrix
from .dense import DenseMatrix
from .overlay_rep import OverlaySparseMatrix
from .pattern import MatrixPattern, VALUE_BYTES
from ..config import SystemConfig
from ..core.address import PAGE_SIZE
from ..cpu.core import Core, CoreStats
from ..osmodel.kernel import Kernel

#: Virtual page where the matrix region starts.
MATRIX_BASE_VPN = 0x1000
#: Virtual page where the x vector starts (far from the matrix).
X_BASE_VPN = 0x200000
#: Virtual page where the y vector starts.
Y_BASE_VPN = 0x280000

REPRESENTATIONS = {
    "dense": DenseMatrix,
    "csr": CSRMatrix,
    "overlay": OverlaySparseMatrix,
}


@dataclass
class SpMVResult:
    """Outcome of one simulated SpMV iteration."""

    representation: str
    matrix: str
    cycles: int
    instructions: int
    memory_bytes: int
    y: Optional[np.ndarray] = None

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0


def _build_vectors(kernel: Kernel, process, cols: int, rows: int,
                   x: np.ndarray) -> None:
    """Map and fill the x (input) and y (output) vector regions."""
    raw = np.ascontiguousarray(x, dtype="<f8").tobytes()
    if len(raw) != cols * VALUE_BYTES:
        raise ValueError(f"x has {len(raw) // VALUE_BYTES} values, "
                         f"the matrix has {cols} columns")
    kernel.map_data(process, X_BASE_VPN, raw)
    kernel.mmap(process, Y_BASE_VPN,
                (rows * VALUE_BYTES + PAGE_SIZE - 1) // PAGE_SIZE)


def run_spmv(pattern: MatrixPattern, representation: str,
             x: Optional[np.ndarray] = None,
             check_result: bool = False,
             config: Optional[SystemConfig] = None) -> SpMVResult:
    """Simulate one SpMV iteration of *pattern* under *representation*.

    A fresh machine is built per run so representations never share
    cache state.  With ``check_result`` the representation's functional
    product is attached for verification.  The machine is built from
    *config* (default: Table 2); the OMT-cache ablation passes one with
    another ``omt_cache_entries``.
    """
    rep_cls = REPRESENTATIONS.get(representation)
    if rep_cls is None:
        raise ValueError(f"unknown representation {representation!r}; "
                         f"choose from {sorted(REPRESENTATIONS)}")
    if x is None:
        x = np.ones(pattern.cols)

    kernel = Kernel(config=config)
    process = kernel.create_process()
    rep = rep_cls(pattern)
    rep.build(kernel, process, MATRIX_BASE_VPN)
    _build_vectors(kernel, process, pattern.cols, pattern.rows, x)

    trace = rep.spmv_trace(X_BASE_VPN * PAGE_SIZE, Y_BASE_VPN * PAGE_SIZE)
    core = Core(kernel.system, process.asid)
    stats: CoreStats = core.run(trace)

    return SpMVResult(
        representation=representation,
        matrix=pattern.name,
        cycles=stats.cycles,
        instructions=stats.instructions,
        memory_bytes=rep.memory_bytes(),
        y=rep.multiply(x) if check_result else None)


def ideal_memory_bytes(pattern: MatrixPattern) -> int:
    """The paper's "Ideal": bytes for the non-zero values alone."""
    return pattern.nnz * VALUE_BYTES
