"""Tests for the process-state registry and its reset-to-fresh promise.

Three layers:

* the registry API itself (register/snapshot/reset);
* the migrated slots (hook holder, watchdog default, workload trace
  memo — including the memo's LRU bound);
* the acceptance property: after perturbing every registered slot and
  calling ``reset_all()``, an in-process benchmark run is byte-identical
  to the same run in a fresh interpreter — twice over, proving reruns
  don't drift either.
"""

import json
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.engine import process_state
from repro.engine.clock import default_max_cycles, set_default_max_cycles
from repro.engine.tracing import HOOKS
from repro.obs.trace import Tracer
from repro.workloads import spec_like
from repro.workloads.spec_like import (BENCHMARKS, TRACE_MEMO_CAPACITY,
                                       warmup_trace)

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def pristine_state():
    """Every test starts and ends at import-time process state."""
    process_state.reset_all()
    yield
    process_state.reset_all()


@pytest.fixture
def scratch_slot():
    """A throwaway slot cleaned out of the registry afterwards."""
    created = []

    def make(name, **kwargs):
        created.append(name)
        return process_state.register(name, **kwargs)

    yield make
    for name in created:
        process_state._SLOTS.pop(name, None)


class TestRegistryApi:
    def test_register_requires_dotted_name(self):
        with pytest.raises(process_state.ProcessStateError):
            process_state.register("flat", snapshot=lambda: 0,
                                   reset=lambda: None)

    def test_duplicate_registration_rejected(self, scratch_slot):
        scratch_slot("tests.scratch.dup", snapshot=lambda: 0,
                     reset=lambda: None)
        with pytest.raises(process_state.ProcessStateError):
            process_state.register("tests.scratch.dup",
                                   snapshot=lambda: 0, reset=lambda: None)
        # replace=True is the sanctioned re-import path.
        process_state.register("tests.scratch.dup", snapshot=lambda: 1,
                               reset=lambda: None, replace=True)
        assert process_state.snapshot("tests.scratch.dup") == 1

    def test_unknown_slot_raises(self):
        with pytest.raises(process_state.ProcessStateError):
            process_state.snapshot("tests.scratch.absent")
        with pytest.raises(process_state.ProcessStateError):
            process_state.reset("tests.scratch.absent")

    def test_snapshot_and_reset_single_slot(self, scratch_slot):
        box = {"value": 0}
        scratch_slot("tests.scratch.box",
                     snapshot=lambda: box["value"],
                     reset=lambda: box.update(value=0))
        box["value"] = 7
        assert process_state.snapshot("tests.scratch.box") == 7
        process_state.reset("tests.scratch.box")
        assert box["value"] == 0


class TestMigratedSlots:
    def test_expected_slots_registered(self):
        names = process_state.registered()
        for expected in ("repro.engine.tracing.HOOKS",
                         "repro.engine.clock._DEFAULT_MAX_CYCLES",
                         "repro.workloads.spec_like._TRACE_MEMO"):
            assert expected in names, expected

    def test_hooks_slot_round_trip(self):
        assert process_state.snapshot("repro.engine.tracing.HOOKS") == \
            (False, False, False)
        HOOKS.active = Tracer()
        assert process_state.snapshot("repro.engine.tracing.HOOKS") == \
            (True, False, False)
        process_state.reset("repro.engine.tracing.HOOKS")
        assert HOOKS.active is None

    def test_watchdog_slot_round_trip(self):
        set_default_max_cycles(123456)
        process_state.reset_all()
        assert default_max_cycles() is None

    def test_trace_memo_slot_round_trip(self):
        warmup_trace(BENCHMARKS["libq"], 0x40, accesses=50, seed=5)
        memo = process_state.snapshot(
            "repro.workloads.spec_like._TRACE_MEMO")
        assert any("libq" in key for key in memo)
        process_state.reset_all()
        assert process_state.snapshot(
            "repro.workloads.spec_like._TRACE_MEMO") == ()


class TestTraceMemoLru:
    def test_capacity_bound(self):
        for seed in range(TRACE_MEMO_CAPACITY + 16):
            warmup_trace(BENCHMARKS["libq"], 0x40, accesses=10, seed=seed)
        assert len(spec_like._TRACE_MEMO) == TRACE_MEMO_CAPACITY

    def test_hit_refreshes_recency(self):
        for seed in range(TRACE_MEMO_CAPACITY):
            warmup_trace(BENCHMARKS["libq"], 0x40, accesses=10, seed=seed)
        # Touch the oldest entry, then insert one more: the victim must
        # be seed=1 (now oldest), not the refreshed seed=0.
        warmup_trace(BENCHMARKS["libq"], 0x40, accesses=10, seed=0)
        warmup_trace(BENCHMARKS["libq"], 0x40, accesses=10,
                     seed=TRACE_MEMO_CAPACITY)
        seeds = {key[-1] for key in spec_like._TRACE_MEMO}
        assert 0 in seeds
        assert 1 not in seeds

    def test_memoized_traces_stay_identical(self):
        first = warmup_trace(BENCHMARKS["libq"], 0x40, accesses=25, seed=9)
        second = warmup_trace(BENCHMARKS["libq"], 0x40, accesses=25, seed=9)
        assert first.accesses == second.accesses
        assert first is not second


#: The benchmark run both halves of the fork-readiness test execute.
#: Small but real: it builds traces (through the memo), forks a process
#: under both policies, and serialises every number in the comparison.
_RUN_SNIPPET = (
    "import json; from dataclasses import asdict; "
    "from repro.eval.fork_experiment import run_benchmark; "
    "r = run_benchmark('libq', scale=0.25, warmup_accesses=300, seed=3); "
    "print(json.dumps(asdict(r), sort_keys=True))"
)


def _run_in_process():
    from repro.eval.fork_experiment import run_benchmark
    result = run_benchmark("libq", scale=0.25, warmup_accesses=300, seed=3)
    return json.dumps(asdict(result), sort_keys=True)


class TestForkReadiness:
    """reset_all() makes in-process reruns match a fresh interpreter."""

    def test_reset_then_rerun_is_byte_identical_to_fresh_process(self):
        # Perturb every registered slot the way a long-lived campaign
        # process would: arm a tracer, flip defaults, warm the memo.
        HOOKS.active = Tracer()
        set_default_max_cycles(10**9)
        warmup_trace(BENCHMARKS["mcf"], 0x80, accesses=40, seed=11)

        process_state.reset_all()
        first = _run_in_process()
        process_state.reset_all()
        second = _run_in_process()
        assert first == second, "in-process rerun drifted"

        fresh = subprocess.run(
            [sys.executable, "-c", _RUN_SNIPPET],
            cwd=REPO_ROOT, capture_output=True, text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"),
                 "PATH": "/usr/bin:/bin:/usr/local/bin"})
        assert fresh.returncode == 0, fresh.stderr
        assert first == fresh.stdout.strip(), \
            "in-process run after reset_all() differs from fresh process"

    def test_snapshot_all_matches_fresh_process_after_reset(self):
        HOOKS.roots = object()
        set_default_max_cycles(10**9)
        process_state.reset_all()
        snap = process_state.snapshot_all()
        assert snap["repro.engine.tracing.HOOKS"] == (False, False, False)
        assert snap["repro.engine.clock._DEFAULT_MAX_CYCLES"] is None
        assert snap["repro.workloads.spec_like._TRACE_MEMO"] == ()
