"""repro — a Python reproduction of *Page Overlays: An Enhanced Virtual
Memory Framework to Enable Fine-grained Memory Management* (Seshadri et
al., ISCA 2015).

The package layers:

* :mod:`repro.engine` — the simulation substrate (components, the
  hierarchical stats registry, the shared clock).  Every component reads
  its parameters from one :class:`~repro.config.SystemConfig`:
  ``OverlaySystem(config=...)`` builds the whole machine from it.
* :mod:`repro.core` — the page-overlay framework itself (address spaces,
  OBitVector, OMT, Overlay Memory Store, TLB/OMT coherence, the
  :class:`~repro.core.OverlaySystem` facade).
* :mod:`repro.mem` — the memory-hierarchy substrate (caches with LRU and
  DRRIP, stream prefetcher, DDR3 DRAM model, byte-accurate main memory).
* :mod:`repro.cpu` — the trace-driven timing model.
* :mod:`repro.osmodel` — the OS model (processes, fork, frame allocation,
  the copy-on-write baseline).
* :mod:`repro.techniques` — the seven techniques of Table 1.
* :mod:`repro.sparse` — sparse-matrix substrate (CSR/dense baselines,
  overlay representation, SpMV kernels).
* :mod:`repro.workloads` — synthetic SPEC-like workload generators.
* :mod:`repro.eval` — experiment harnesses regenerating every table and
  figure of the paper's evaluation.
"""

from .core import OverlaySystem, OBitVector, PAGE_SIZE, LINE_SIZE, LINES_PER_PAGE
from .config import DEFAULT_CONFIG, SystemConfig

__version__ = "1.0.0"

__all__ = ["OverlaySystem", "OBitVector", "PAGE_SIZE", "LINE_SIZE",
           "LINES_PER_PAGE", "SystemConfig",
           "DEFAULT_CONFIG", "__version__"]
