"""The one execution engine: :meth:`Core.step` runs every access.

There is no second, fused engine to compare against any more, so these
tests pin the single per-access path down directly:

* every benchmark in ``TYPE_ORDER`` reproduces its committed
  ``results/figure9.json`` entry exactly;
* hooks observe and never steer: the full hierarchical stats export
  (``stats_scope.flat_paths()``) is the same with a tracer armed as without;
* ``results/*.json`` documents and trace JSONL are deterministic run
  to run;
* per-access clock publication: the ``max_sim_cycles`` watchdog fires
  on the first access whose time crosses the limit;
* a tracemalloc check that the hooks holder allocates nothing on the
  per-access path while tracing is off.
"""

import json
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.cpu.core import Core
from repro.engine.clock import SimulationHangError, set_default_max_cycles
from repro.obs import RunManifest, run_document, tracing_session, write_json
from repro.osmodel.cow import CopyOnWritePolicy
from repro.eval.fork_experiment import (BASE_VPN, run_benchmark, run_suite)
from repro.osmodel.kernel import Kernel
from repro.techniques.overlay_on_write import OverlayOnWritePolicy
from repro.workloads.spec_like import (BENCHMARKS, TYPE_ORDER,
                                       measurement_trace, warmup_trace)

FIGURE9 = Path(__file__).resolve().parent.parent / "results" / "figure9.json"

#: Scaled far down so the determinism checks run in seconds.
SCALE = 0.05

#: Benchmarks whose full stats tree (every counter in the machine) is
#: compared.  bwaves is the write-heaviest streaming workload, mcf the
#: most random, omnet the most TLB-hostile.
DEEP_BENCHMARKS = ("bwaves", "mcf", "omnet")


def _machine_run(name, policy):
    """A fork run with the machine kept: every counter in the machine
    plus the core's own statistics, as one flat dict."""
    profile = BENCHMARKS[name]
    kernel = Kernel()
    parent = kernel.create_process()
    kernel.mmap(parent, BASE_VPN, profile.footprint_pages, fill=b"w")
    if policy == "cow":
        kernel.install_cow_policy(CopyOnWritePolicy(kernel))
    else:
        kernel.install_cow_policy(OverlayOnWritePolicy(kernel))
    core = Core(kernel.system, parent.asid)
    core.run(warmup_trace(profile, BASE_VPN, seed=1))
    kernel.fork(parent)
    stats = core.run(measurement_trace(profile, BASE_VPN,
                                       scale=SCALE, seed=2))
    kernel.system.hierarchy.flush_dirty()
    flat = kernel.system.stats_scope.flat_paths()
    flat.update({f"core.{k}": v for k, v in vars(stats).items()})
    return flat


class TestResultsEquivalence:
    @pytest.mark.parametrize("name", TYPE_ORDER)
    def test_benchmark_payload_identical(self, name):
        """Each full-scale payload equals its committed figure 9 entry."""
        committed = {entry["benchmark"]: entry for entry in
                     json.loads(FIGURE9.read_text())["data"]["benchmarks"]}
        assert asdict(run_benchmark(name, seed=0)) == committed[name]

    @pytest.mark.parametrize("name", DEEP_BENCHMARKS)
    def test_full_stats_tree_identical(self, name):
        """An armed tracer sees the same path it does not perturb."""
        for policy in ("cow", "oow"):
            plain = _machine_run(name, policy)
            with tracing_session():
                traced = _machine_run(name, policy)
            assert plain == traced, (
                f"{name}/{policy}: stats diverge at "
                f"{[k for k in plain if plain[k] != traced.get(k)]}")

    def test_results_document_bytes_identical(self, tmp_path):
        """The emitted results/*.json artifact is byte-for-byte stable.

        The manifest is pinned to one RunManifest instance: its
        python/platform/started_at/duration fields legitimately vary
        run to run.
        """
        manifest = RunManifest.create("figure9-determinism")
        paths = []
        for index in range(2):
            results = run_suite(benchmarks=["bwaves", "mcf"], scale=SCALE)
            doc = run_document(manifest,
                               {"benchmarks": [asdict(r) for r in results]})
            paths.append(write_json(tmp_path / f"{index}.json", doc))
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestTraceEquivalence:
    def test_trace_jsonl_identical(self):
        """Two traced runs emit the same events, payloads and order."""
        streams = []
        for _ in range(2):
            with tracing_session() as tracer:
                run_benchmark("bwaves", scale=SCALE)
            streams.append(tracer.to_jsonl())
        assert streams[0]
        assert streams[0] == streams[1]


class TestWatchdog:
    LIMIT = 20_000

    def test_fires_on_first_access_past_limit(self):
        """Clock motion is published per access, so the watchdog stops
        the run inside the first access that takes time past the limit:
        every access before it ended within the limit."""
        profile = BENCHMARKS["bwaves"]
        set_default_max_cycles(self.LIMIT)
        try:
            kernel = Kernel()
            process = kernel.create_process()
            kernel.mmap(process, BASE_VPN, profile.footprint_pages,
                        fill=b"w")
            core = Core(kernel.system, process.asid)
            state = core.begin_run(warmup_trace(profile, BASE_VPN, seed=1))
            clock = kernel.system.sim_clock
            issued = 0
            with pytest.raises(SimulationHangError) as caught:
                while True:
                    assert clock.peak <= self.LIMIT
                    issued = state.stats.memory_accesses
                    assert core.step(state), "trace ended under the limit"
        finally:
            set_default_max_cycles(None)
        assert caught.value.limit == self.LIMIT
        assert caught.value.snapshot["peak"] > self.LIMIT
        assert issued > 0
        assert state.stats.memory_accesses == issued

    def test_limit_reaches_benchmark_runs(self):
        set_default_max_cycles(2000)
        try:
            with pytest.raises(SimulationHangError) as caught:
                run_benchmark("bwaves", scale=SCALE)
        finally:
            set_default_max_cycles(None)
        assert caught.value.limit == 2000


class TestHooksHolderAllocation:
    def test_tracing_module_allocates_nothing_when_off(self):
        """With no tracer/root observer/fault hook armed, the hook checks on
        the per-access path are attribute loads on the process-wide
        holder — tracemalloc must attribute zero allocations to the
        tracing module."""
        import repro.engine.tracing as tracing_module
        run_benchmark("bwaves", scale=SCALE)  # warm every code path
        tracemalloc.start()
        try:
            run_benchmark("bwaves", scale=SCALE)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        culprits = snapshot.filter_traces([
            tracemalloc.Filter(True, tracing_module.__file__)])
        total = sum(stat.size for stat in culprits.statistics("lineno"))
        assert total == 0, culprits.statistics("lineno")[:5]
