"""Reproducibility: two identical runs are byte-identical.

This is the run-time side of check SL001 in ``test_architecture.py``,
which keeps wall-clock reads and the shared RNG out of the source.

The Section 5 results are only trustworthy if a rerun reproduces them
exactly.  Every synthetic-input generator draws from an explicitly
seeded ``random.Random`` (base seed: ``SystemConfig.rng_seed``), so a
full simulated run — kernel, fork, measurement trace, whole-machine
stats tree — must serialise to the same bytes every time.
"""

import json
import random

from repro.config import SystemConfig
from repro.cpu.core import Core
from repro.cpu.trace import Trace
from repro.engine.rng import derive_rng, resolve_seed
from repro.eval.sparsity_sweep import run_sparsity_sweep
from repro.obs import RunManifest, tracing_session
from repro.osmodel.kernel import Kernel
from repro.sparse.matrix_gen import (generate_with_locality, locality_sweep,
                                     realworld_like_suite)
from repro.techniques.overlay_on_write import OverlayOnWritePolicy
from repro.workloads.spec_like import (BENCHMARKS, measurement_trace,
                                       warmup_trace)

BASE_VPN = 0x400


def _full_system_snapshot() -> str:
    """One small fork-experiment run, serialised stats tree and all."""
    profile = BENCHMARKS["astar"]
    kernel = Kernel()
    parent = kernel.create_process()
    kernel.mmap(parent, BASE_VPN, profile.footprint_pages, fill=b"w")
    kernel.install_cow_policy(OverlayOnWritePolicy(kernel))
    core = Core(kernel.system, parent.asid)
    core.run(warmup_trace(profile, BASE_VPN, accesses=500))
    kernel.fork(parent)
    stats = core.run(measurement_trace(profile, BASE_VPN, scale=0.1))
    snapshot = {"system": kernel.system.stats_scope.flat_paths(),
                "cpi": stats.cpi, "cycles": stats.cycles,
                "instructions": stats.instructions}
    return json.dumps(snapshot, sort_keys=True)


class TestByteIdenticalRuns:
    def test_full_system_stats_snapshot(self):
        assert _full_system_snapshot() == _full_system_snapshot()

    def test_sparsity_sweep(self):
        first = run_sparsity_sweep(rows=64, cols=64)
        second = run_sparsity_sweep(rows=64, cols=64)
        assert first == second

    def test_matrix_suites(self):
        assert (locality_sweep(3, rows=64, cols=64, nnz=200)
                == locality_sweep(3, rows=64, cols=64, nnz=200))
        assert realworld_like_suite(64, 64) == realworld_like_suite(64, 64)

    def test_traces(self):
        assert (Trace.random_in_region(0, 4096, 100).accesses
                == Trace.random_in_region(0, 4096, 100).accesses)
        assert (Trace.zipf_pages(0, pages=8, count=100).accesses
                == Trace.zipf_pages(0, pages=8, count=100).accesses)


class TestObservabilityDeterminism:
    """The obs layer must not weaken the byte-identical guarantee."""

    @staticmethod
    def _traced_snapshot():
        with tracing_session() as tracer:
            snapshot = _full_system_snapshot()
        return snapshot, tracer.to_jsonl()

    def test_event_trace_is_byte_identical_across_runs(self):
        first_snapshot, first_trace = self._traced_snapshot()
        second_snapshot, second_trace = self._traced_snapshot()
        assert first_trace and first_trace == second_trace
        assert first_snapshot == second_snapshot

    def test_tracing_does_not_perturb_the_simulation(self):
        untraced = _full_system_snapshot()
        traced, _ = self._traced_snapshot()
        assert traced == untraced

    def test_manifest_deterministic_fields(self):
        assert (RunManifest.create("det").deterministic_dict()
                == RunManifest.create("det").deterministic_dict())


class TestInjectedRng:
    def test_injected_rng_wins(self):
        rng = random.Random(12345)
        assert derive_rng(rng) is rng

    def test_injected_rng_is_reproducible(self):
        first = generate_with_locality(64, 64, nnz=50, locality=2.0,
                                       rng=random.Random(42), name="m")
        second = generate_with_locality(64, 64, nnz=50, locality=2.0,
                                        rng=random.Random(42), name="m")
        assert first == second

    def test_measurement_trace_accepts_rng(self):
        profile = BENCHMARKS["bwaves"]
        first = measurement_trace(profile, BASE_VPN,
                                  rng=random.Random(9)).accesses
        second = measurement_trace(profile, BASE_VPN,
                                   rng=random.Random(9)).accesses
        assert first == second


class TestSeedResolution:
    def test_default_base_seed_comes_from_config(self):
        assert resolve_seed() == SystemConfig().rng_seed
        assert resolve_seed(stream=7) == SystemConfig().rng_seed + 7

    def test_config_override_shifts_every_stream(self):
        config = SystemConfig(rng_seed=100)
        assert resolve_seed(stream=5, config=config) == 105

    def test_explicit_seed_wins_over_config(self):
        config = SystemConfig(rng_seed=100)
        assert resolve_seed(seed=3, stream=5, config=config) == 3

    def test_changing_the_seed_changes_the_output(self):
        base = generate_with_locality(64, 64, nnz=50, locality=2.0, name="m")
        other = generate_with_locality(64, 64, nnz=50, locality=2.0,
                                       seed=1, name="m")
        assert base != other
