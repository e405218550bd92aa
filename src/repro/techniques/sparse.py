"""Technique 2: sparse data structures (Section 5.2).

The substrate lives in :mod:`repro.sparse`; this module is the
technique-level entry point re-exporting the overlay representation
(virtually dense matrix over a shared zero page, non-zero lines in
overlays) and the harness that evaluates it against CSR and the dense
baseline.

``repro.sparse`` sits *above* the techniques layer in the layer DAG
(check SL004 in ``tests/test_architecture.py``), so the re-exports
resolve lazily via module ``__getattr__`` (PEP 562): importing
:mod:`repro.techniques` never drags the upper tier in at import time,
while ``from repro.techniques.sparse import run_spmv`` still works
unchanged.

See :class:`repro.sparse.OverlaySparseMatrix` for the representation and
the *computation over overlays* model, and
:func:`repro.sparse.run_spmv` for the simulated SpMV kernel.
"""

from __future__ import annotations

import importlib

#: Re-exported name -> the upper-tier module that defines it.
_EXPORTS = {
    "OverlaySparseMatrix": "repro.sparse.overlay_rep",
    "SpMVResult": "repro.sparse.spmv",
    "ideal_memory_bytes": "repro.sparse.spmv",
    "run_spmv": "repro.sparse.spmv",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(module), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
