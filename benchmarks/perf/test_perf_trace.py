"""The layer tracer: self-time arithmetic, spans, and restoring what it
wrapped."""

from perf_trace import (LAYER_METHODS, LayerTracer, Patches, SimProbe,
                        resolve_class)
from perf_workloads import WORKLOADS
from repro.core.framework import OverlaySystem
from repro.cpu.core import Core
import run


def scripted_clock(*times):
    ticks = iter(times)
    return lambda: next(ticks)


class Outer:
    def __init__(self, inner):
        self.inner = inner

    def go(self):
        self.inner.leaf()
        self.inner.leaf()

    def again(self):
        return self.go()


class Inner:
    def leaf(self):
        return None


def traced_pair(tracer, patches, outer_layer, inner_layer):
    index = tracer.index
    for cls, method, layer in ((Outer, "go", outer_layer),
                               (Outer, "again", outer_layer),
                               (Inner, "leaf", inner_layer)):
        patches.replace(
            cls, method, lambda original, layer=layer, label=method:
            tracer.wrap(original, lambda _obj: index[layer], label))


def test_self_time_is_inclusive_minus_children():
    # origin, go start, leaf start/end, leaf start/end, go end
    tracer = LayerTracer(clock=scripted_clock(0.0, 1.0, 2.0, 4.0, 5.0, 8.0,
                                              11.0))
    with Patches() as patches:
        traced_pair(tracer, patches, "core.framework", "mem.hierarchy")
        Outer(Inner()).go()
    outer = tracer.index["core.framework"]
    inner = tracer.index["mem.hierarchy"]
    assert tracer.calls[outer] == 1 and tracer.calls[inner] == 2
    assert tracer.incl_s[inner] == 5.0          # 2 + 3
    assert tracer.self_s[inner] == 5.0          # leaves have no children
    assert tracer.incl_s[outer] == 10.0
    assert tracer.self_s[outer] == 10.0 - 5.0
    wall = 11.0 - 0.0
    assert sum(tracer.self_s) <= wall
    assert tracer.edge_calls[0][outer] == 1
    assert tracer.edge_calls[outer + 1][inner] == 2
    assert tracer.edge_s[outer + 1][inner] == 5.0
    assert [span[:4] for span in tracer.spans] == [
        ["go", 1.0, 11.0, -1], ["leaf", 2.0, 4.0, 0], ["leaf", 5.0, 8.0, 0]]
    shares = tracer.layer_times(wall, passes=1)
    assert shares["core.framework"]["self_share"] == 5.0 / 11.0


def test_reentered_layer_counts_inclusive_time_once():
    # origin, again start, go start, leaf x2, go end, again end
    tracer = LayerTracer(clock=scripted_clock(0.0, 0.0, 1.0, 2.0, 3.0, 4.0,
                                              5.0, 6.0, 7.0))
    with Patches() as patches:
        traced_pair(tracer, patches, "core.framework", "mem.hierarchy")
        Outer(Inner()).again()
    outer = tracer.index["core.framework"]
    assert tracer.calls[outer] == 2
    assert tracer.incl_s[outer] == 7.0
    assert tracer.self_s[outer] == 7.0 - 2.0


def test_spans_stop_after_the_first_requests():
    tracer = LayerTracer(span_requests=2)
    with Patches() as patches:
        traced_pair(tracer, patches, "cpu.core", "mem.hierarchy")
        for _ in range(4):
            Outer(Inner()).go()
    assert tracer.requests == 4
    assert {span[4] for span in tracer.spans} == {0, 1}
    assert len(tracer.spans) == 2 * 3


class OneUnit:
    """A fork workload cut to one small benchmark, for quick passes."""

    def units(self, inputs):
        return {"libq": "libq"}

    @staticmethod
    def run(unit, seed):
        return WORKLOADS["fork-type1"].run(unit, seed)

    @staticmethod
    def check(unit, result, inputs, reference):
        return None


def wrapped_attributes():
    names = [(resolve_class(module, cls), method)
             for _layer, module, cls, methods in LAYER_METHODS
             for method in methods]
    return names + [(Core, "run"), (OverlaySystem, "__init__")]


def test_traced_run_restores_every_wrapped_attribute():
    originals = {(cls, name): cls.__dict__[name]
                 for cls, name in wrapped_attributes()}
    runner = run.UnitRunner(OneUnit(), None, None, seed=0)
    report = run.traced_run(runner, seconds=0, gauge=run.HostGauge())
    assert runner.failed == 0 and not runner.errors
    assert report["metrics"]["cpu.core.calls"] > 0
    assert report["metrics"]["sim.accesses"] > 0
    for (cls, name), original in originals.items():
        assert cls.__dict__[name] is original, f"{cls.__name__}.{name}"


def test_probe_sums_core_runs_and_lets_machines_go():
    probe = SimProbe(keep_machines=True)
    with Patches() as patches:
        probe.install(patches)
        OneUnit.run("libq", seed=0)
        assert len(probe.machines) == 2      # one per policy
        probe.fold()
    assert probe.machines == []
    metrics = probe.sim_metrics()
    assert metrics["sim.accesses"] == probe.core.memory_accesses > 0
    assert metrics["sim.cow_triggers"] > 0
    assert set(metrics) <= set(run.layer_units())
