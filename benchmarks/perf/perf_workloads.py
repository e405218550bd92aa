"""The benchmark's workloads: inputs from a seed, units of work, checks.

Each workload is a list of units run through the functions that
``python -m repro figure9`` / ``figure10`` call.  A fork unit is
``run_benchmark(b, seed=S)``: copy-on-write and overlay-on-write, each
on a fresh machine.  An SpMV unit is ``run_figure10(matrices=[m])``:
CSR and overlay SpMV of one matrix, each on a fresh machine.  Seed 0
reproduces the committed figures.

Set-up generates every input the units use.  For the fork workloads it
fills the trace memo with exactly the traces ``run_policy`` asks for, so
no trace is generated while units are timed.

Every unit's output is checked:

* any seed: invariants the inputs decide.  Copy-on-write copies each
  written page once, both policies retire every instruction of the
  measurement trace, and an SpMV point describes its own matrix.
* seed 0: equality with the committed ``results/figure9.json`` entry or
  ``results/figure10.txt`` row.  ``results/figure10.json`` is not used:
  no current producer writes what it holds (see README.md).
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Dict, Optional

from repro.core.address import PAGE_SIZE
from repro.engine import process_state
from repro.eval.fork_experiment import (BASE_VPN, BenchmarkComparison,
                                        run_benchmark)
from repro.eval.spmv_experiment import (DEFAULT_COLS, DEFAULT_NNZ,
                                        DEFAULT_ROWS, Figure10Point,
                                        format_figure10, run_figure10)
from repro.sparse.matrix_gen import locality_sweep
from repro.sparse.pattern import MatrixPattern
from repro.workloads.spec_like import (BENCHMARKS, TYPE_ORDER,
                                       measurement_trace, warmup_trace)

TRACE_MEMO = "repro.workloads.spec_like._TRACE_MEMO"

#: ``run_benchmark``'s warm-up length; set-up must ask for the same
#: trace or the timed phase would miss the memo.
WARMUP_ACCESSES = 3000

#: ``run_figure10``'s default sweep seed, which the committed figure uses.
FIGURE10_SEED = 7
FIGURE10_MATRICES = 16


def memo_keys() -> frozenset:
    """The trace memo's keys; a new key means a trace was generated."""
    return frozenset(process_state.snapshot(TRACE_MEMO))


class ForkWorkload:
    """Benchmarks of one paper type under fork (§5.1)."""

    def __init__(self, *benchmarks: str):
        self.benchmarks = list(benchmarks)

    def setup(self, seed: int) -> Dict[str, int]:
        """Generate every trace into an empty memo; returns each
        benchmark's measurement-trace instruction count."""
        process_state.reset(TRACE_MEMO)
        instructions = {}
        for name in self.benchmarks:
            profile = BENCHMARKS[name]
            warmup_trace(profile, BASE_VPN, accesses=WARMUP_ACCESSES,
                         seed=seed + 1)
            instructions[name] = measurement_trace(
                profile, BASE_VPN, scale=1.0, seed=seed + 2).instructions
        return instructions

    def units(self, inputs: Dict[str, int]) -> Dict[str, str]:
        return {name: name for name in self.benchmarks}

    @staticmethod
    def run(unit: str, seed: int) -> BenchmarkComparison:
        return run_benchmark(unit, seed=seed)

    @staticmethod
    def reference(root: Path) -> Dict[str, dict]:
        doc = json.loads((root / "results" / "figure9.json").read_text())
        return {entry["benchmark"]: entry
                for entry in doc["data"]["benchmarks"]}

    @staticmethod
    def check(unit: str, result: BenchmarkComparison,
              inputs: Dict[str, int],
              reference: Optional[Dict[str, dict]]) -> Optional[str]:
        """Why *result* is wrong, or None."""
        if reference is not None and asdict(result) != reference.get(unit):
            return "differs from results/figure9.json"
        copied = BENCHMARKS[unit].write_pages * PAGE_SIZE
        if result.cow.additional_memory_bytes != copied:
            return (f"copy-on-write added "
                    f"{result.cow.additional_memory_bytes} bytes, not one "
                    f"page per written page ({copied})")
        for run in (result.cow, result.oow):
            if run.instructions != inputs[unit]:
                return (f"{run.policy} retired {run.instructions} "
                        f"instructions of {inputs[unit]}")
        return None


class SpmvWorkload:
    """Matrices of the Figure 10 sweep: SpMV with overlays vs CSR (§5.2)."""

    def __init__(self, *matrices: int):
        self.matrices = matrices

    def setup(self, seed: int) -> list:
        """The whole sweep, as ``run_figure10`` makes it; the units are
        the matrices this workload picks from it."""
        sweep = locality_sweep(FIGURE10_MATRICES, rows=DEFAULT_ROWS,
                               cols=DEFAULT_COLS, nnz=DEFAULT_NNZ,
                               seed=FIGURE10_SEED + seed)
        return [sweep[index] for index in self.matrices]

    @staticmethod
    def units(inputs: list) -> Dict[str, MatrixPattern]:
        return {matrix.name: matrix for matrix in inputs}

    @staticmethod
    def run(unit: MatrixPattern, seed: int) -> Figure10Point:
        return run_figure10(matrices=[unit])[0]

    @staticmethod
    def reference(root: Path) -> Dict[str, str]:
        rows = (root / "results" / "figure10.txt").read_text().splitlines()
        return {row.split()[0]: row for row in rows
                if row.startswith("uf-like-")}

    @staticmethod
    def check(unit: MatrixPattern, result: Figure10Point, inputs: list,
              reference: Optional[Dict[str, str]]) -> Optional[str]:
        """Why *result* is wrong, or None."""
        if reference is not None:
            row = format_figure10([result]).splitlines()[2]
            if row != reference.get(unit.name):
                return "differs from results/figure10.txt"
        described = (result.matrix, result.nnz, result.locality)
        if described != (unit.name, unit.nnz, unit.locality):
            return f"point {described} does not describe {unit.name}"
        if result.relative_performance != (result.csr_cycles
                                           / result.overlay_cycles):
            return "relative performance is not CSR / overlay cycles"
        return None


#: A pass over a workload must be short enough (a few seconds here) for
#: each unit to run several times in one run, so that its median time
#: shrugs off the second-long slowdowns of a shared host.  Type 1 is cheap
#: and keeps all five benchmarks; types 2 and 3 keep two each, and SpMV
#: keeps four matrices spanning L from 1 to 8.
WORKLOADS = {
    "fork-type1": ForkWorkload(*[name for name in TYPE_ORDER
                                 if BENCHMARKS[name].type_id == 1]),
    # Clustered (cactus) and scattered (lbm) dense page updates.
    "fork-type2": ForkWorkload("cactus", "lbm"),
    # The most pages written (mcf: 560) and a mid-size case (omnet: 300).
    "fork-type3": ForkWorkload("mcf", "omnet"),
    # L = 1.00, 3.33 (the committed crossover), 5.67 and 8.00.
    "spmv-fig10": SpmvWorkload(0, 5, 10, 15),
}
