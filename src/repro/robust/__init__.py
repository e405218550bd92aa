"""repro.robust — deterministic fault injection, invariant checking,
and hardened run execution.

The robustness layer over the page-overlay machine (rank 3: it drives
every lower layer, nothing imports it).  Three pieces:

* :mod:`repro.robust.faults` — the :class:`FaultPlan` /
  :class:`FaultInjector` pair implementing the engine's
  :class:`~repro.engine.tracing.FaultHook` slot: seeded, per-site fault
  rates with a configurable DRAM ECC model;
* :mod:`repro.robust.invariants` — the :class:`InvariantChecker`
  component sweeping the architectural invariants the paper's
  correctness argument rests on (overlay exclusivity, OMT/page-table
  consistency, TLB coherence, OMS free-list integrity);
* :mod:`repro.robust.campaign` — the campaign runner
  (``python -m repro.robust``) sweeping fault rates and classifying
  trial outcomes into ``results/<name>.faults.json``.
"""

from .campaign import (DEFAULT_BASE_PLAN, OUTCOMES, fault_seed_grid,
                       run_campaign, run_trial, synthesize_workload)
from .faults import (ECC_MODES, FaultInjector, FaultPlan, FaultStats,
                     fault_session)
from .invariants import RULES, InvariantChecker, InvariantStats, Violation

__all__ = [
    "DEFAULT_BASE_PLAN",
    "ECC_MODES",
    "FaultInjector",
    "FaultPlan",
    "FaultStats",
    "InvariantChecker",
    "InvariantStats",
    "OUTCOMES",
    "RULES",
    "Violation",
    "fault_seed_grid",
    "fault_session",
    "run_campaign",
    "run_trial",
    "synthesize_workload",
]
