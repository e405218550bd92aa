"""Host-performance benchmark of the simulator: four paper workloads
timed end to end, and a traced run that splits host time by layer.

One run::

    python3 benchmarks/perf/run.py --workload fork-type1 --seed 0 \\
        --seconds 25 --trace 0 [--out FILE]

sets the workload up from the seed several times (``setup_s``), then
runs its units round robin for ``--seconds`` and at least one whole
pass, checking every unit's output.  It prints each metric with its
unit and, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced whole
passes and reports the per-layer metrics.  ``--out`` also writes the
run's samples (and, traced, its layer table, edges and spans).

A suite (no ``--workload``)::

    python3 benchmarks/perf/run.py [--seed S] [--repeats N] \\
        [--workloads a,b] [--seconds T] [--out FILE]

runs each workload N times, each run a fresh subprocess, one at a time,
round robin with the start rotated each round; then one traced run per
workload.  It writes one document that ``python -m repro.obs compare``
can gate (see README.md).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Default measured seconds of one run (``run_seconds`` in BENCHMARK.json).
RUN_SECONDS = 25
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 11
#: Runs per workload in a suite.
SUITE_REPEATS = 3
#: A suite counts a run that takes longer than this as failed.
RUN_TIMEOUT_S = 180

#: End-to-end metrics (``--trace 0``) and their units.
E2E_UNITS = {
    "pass_cpu_s": "s",
    "sim_accesses_per_cpu_s": "accesses/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def layer_units() -> Dict[str, str]:
    """Per-layer metrics (``--trace 1``) and their units."""
    from perf_trace import LAYERS, SIM_METRICS
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_share"] = "fraction"
    units["harness.self_share"] = "fraction"
    units["trace.wall_s"] = "s"
    units["trace.overhead_pct"] = "%"
    units.update(SIM_METRICS)
    return units


def host_load() -> dict:
    """The 1-minute load average and the host's total CPU steal seconds
    (None where ``/proc/stat`` is unavailable)."""
    steal = None
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
        steal = int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        pass
    return {"loadavg_1m": os.getloadavg()[0], "steal_s": steal}


def load_delta(before: dict, after: dict) -> dict:
    steal = (None if before["steal_s"] is None or after["steal_s"] is None
             else after["steal_s"] - before["steal_s"])
    return {"loadavg_1m": [before["loadavg_1m"], after["loadavg_1m"]],
            "steal_s": steal}


def now() -> float:
    """Wall-clock seconds, for deadlines and traced passes."""
    return time.perf_counter()  # simlint: disable=SL001


def cpu_now() -> float:
    """CPU seconds of this (single-threaded) program, for the end-to-end
    metrics.  Unlike the wall clock it stops while the hypervisor runs
    another guest (CPU steal).  The thread clock is exact even while a
    process-wide CPU timer (:class:`HostGauge`) is armed, when the
    process clock only advances at scheduler ticks."""
    return time.thread_time()  # simlint: disable=SL001


#: CPU seconds of one :class:`HostGauge` sample on the host the bounds
#: were set on (2-core Xeon VM, Python 3.11).  End-to-end times are
#: given at this host speed.
REFERENCE_SAMPLE_S = 0.0005


class HostGauge:
    """How fast the host runs Python, sampled while the program runs.

    On a shared host the program's speed drifts by tens of percent within
    seconds, because other guests contend for the core.  While the gauge
    is entered, every :data:`interval` CPU seconds (``SIGPROF``) it times
    a fixed loop of dict lookups and integer arithmetic.  The loop
    allocates nothing and does not touch the simulator, so no change to
    the simulator can move it.

    :meth:`start` and :meth:`stop` bracket a span of work; :meth:`stop`
    returns the span's CPU seconds less the gauge's own, and the same
    scaled by :data:`REFERENCE_SAMPLE_S` over the (trimmed) mean sample
    taken in the span: its CPU seconds at reference host speed.
    """

    #: Loop rounds per sample: about 0.5 ms, 1% of the run at 50 ms.
    ROUNDS = 2000

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.table = {index: index * 7 for index in range(1024)}
        #: (CPU time at start, CPU seconds) of every sample.
        self.samples: List[Tuple[float, float]] = []
        self._previous = None

    def sample(self, *_signal) -> None:
        table, total = self.table, 0
        started = cpu_now()
        for index in range(self.ROUNDS):
            value = table.get((index * 40503) & 1023, 0)
            total += value >> 1 if value & 1 else -(value & 15)
        self.samples.append((started, cpu_now() - started))

    def __enter__(self) -> "HostGauge":
        self._previous = signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def start(self) -> int:
        self.sample()
        return len(self.samples) - 1

    def stop(self, mark: int) -> Tuple[float, float]:
        """(CPU seconds, seconds at reference speed) since :meth:`start`
        returned *mark*."""
        ended = cpu_now()
        self.sample()
        began = sum(self.samples[mark])
        inside = self.samples[mark:]
        own = sum(seconds for started, seconds in inside[1:]
                  if started < ended)
        cpu = ended - began - own
        return cpu, cpu * REFERENCE_SAMPLE_S / trimmed_mean(
            [seconds for _started, seconds in inside])


def trimmed_mean(values: List[float]) -> float:
    """Mean of *values* without the highest and lowest 5%: a sample the
    kernel interrupts for milliseconds must not move a span's speed."""
    values = sorted(values)
    drop = len(values) // 20
    return statistics.fmean(values[drop:len(values) - drop])


# -- one run ------------------------------------------------------------------


class UnitRunner:
    """Runs and checks units of one workload; a unit fails if it raises,
    its output is wrong, or it differs from the unit's first run."""

    def __init__(self, workload, inputs, reference, seed: int):
        self.workload = workload
        self.units = workload.units(inputs)
        self.inputs = inputs
        self.reference = reference
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.first: Dict[str, tuple] = {}
        #: Simulated accesses of each unit (its ``Core.run`` calls).
        self.accesses: Dict[str, int] = {}

    def run(self, label: str, probe,
            gauge: HostGauge) -> Optional[Tuple[float, float]]:
        """Run one unit; its CPU seconds and its seconds at reference host
        speed (:meth:`HostGauge.stop`), or None if it failed."""
        unit = self.units[label]
        self.attempted += 1
        before = probe.core.memory_accesses
        mark = gauge.start()
        try:
            result = self.workload.run(unit, self.seed)
        except Exception as error:  # counted as a failed unit, run goes on
            return self._fail(label, f"raised {type(error).__name__}: {error}")
        elapsed = gauge.stop(mark)
        accesses = probe.core.memory_accesses - before
        probe.fold()
        problem = self.workload.check(unit, result, self.inputs,
                                      self.reference)
        fingerprint = (asdict(result), accesses)
        if problem is None and self.first.setdefault(
                label, fingerprint) != fingerprint:
            problem = "differs from its first run in this process"
        if problem is not None:
            return self._fail(label, problem)
        self.accesses[label] = accesses
        return elapsed

    def _fail(self, label: str, problem: str) -> None:
        self.failed += 1
        self.errors.append(f"{label}: {problem}")
        return None


def timed_run(runner: UnitRunner, seconds: float, gauge: HostGauge) -> dict:
    """Units round robin until *seconds* have passed and every unit ran.

    ``pass_cpu_s`` is the CPU time of one pass over the workload at
    reference host speed: the sum over units of each unit's median, each
    sample scaled by the host speed *gauge* measured while it ran.  A
    shared host slows down by tens of percent for seconds to minutes at a
    time; the scaling removes most of that (README.md, "Noise").  Every
    unit starts from a fresh garbage collection: a full collection
    inside one sample and not the next would cost it a tenth of its time.
    """
    from perf_trace import Patches, SimProbe
    labels = list(runner.units)
    samples: Dict[str, List[float]] = {label: [] for label in labels}
    cpu_samples: Dict[str, List[float]] = {label: [] for label in labels}
    probe = SimProbe()
    with Patches() as patches, gauge:
        probe.install(patches)
        deadline = now() + seconds
        done = 0
        while done < len(labels) or now() < deadline:
            label = labels[done % len(labels)]
            gc.collect()
            elapsed = runner.run(label, probe, gauge)
            if elapsed is not None:
                cpu_samples[label].append(elapsed[0])
                samples[label].append(elapsed[1])
            done += 1
    cpu = sum(statistics.median(values) for values in samples.values()
              if values)
    accesses = sum(runner.accesses.values())
    rate = accesses / cpu if cpu else 0.0
    return {"metrics": {"pass_cpu_s": cpu, "sim_accesses_per_cpu_s": rate},
            "unit_samples": samples, "unit_cpu_samples": cpu_samples,
            "accesses_per_pass": accesses}


def traced_run(runner: UnitRunner, seconds: float, gauge: HostGauge) -> dict:
    """Whole passes, untraced and traced in turn, until *seconds* have
    passed and each kind ran once.  Spans and passes are timed by the wall
    clock, with *gauge* not sampling.  Simulated statistics come from the
    first traced pass; every traced pass must make the same calls."""
    from perf_trace import LAYERS, LayerTracer, Patches, SimProbe
    labels = list(runner.units)
    tracer = LayerTracer()
    walls: Dict[bool, List[float]] = {False: [], True: []}
    pass_calls: List[List[int]] = []
    sim = None
    deadline = now() + seconds
    while not walls[True] or now() < deadline:
        traced = len(walls[False]) > len(walls[True])
        probe = SimProbe(keep_machines=traced and sim is None)
        calls_before = list(tracer.calls)
        with Patches() as patches:
            probe.install(patches)
            if traced:
                tracer.install(patches)
            started = now()
            for label in labels:
                runner.run(label, probe, gauge)
            walls[traced].append(now() - started)
        if traced:
            pass_calls.append([after - before for after, before
                               in zip(tracer.calls, calls_before)])
            sim = sim or probe.sim_metrics()
    if any(calls != pass_calls[0] for calls in pass_calls):
        runner.errors.append("layer call counts differ between traced passes")

    passes = len(walls[True])
    traced_wall = sum(walls[True])
    layers = tracer.layer_times(traced_wall, passes)
    metrics = {}
    for layer, calls in zip(LAYERS, pass_calls[0]):
        metrics[f"{layer}.calls"] = calls
        metrics[f"{layer}.self_share"] = layers[layer]["self_share"]
    self_share = sum(times["self_share"] for times in layers.values())
    metrics["harness.self_share"] = 1.0 - self_share
    metrics["trace.wall_s"] = traced_wall / passes
    metrics["trace.overhead_pct"] = 100.0 * (
        traced_wall / passes
        / (sum(walls[False]) / len(walls[False])) - 1.0)
    metrics.update(sim)
    layers["harness"] = {"self_s": (1.0 - self_share) * traced_wall / passes,
                         "incl_s": traced_wall / passes,
                         "self_share": 1.0 - self_share}
    return {"metrics": metrics, "layers": layers,
            "edges": tracer.edge_table(passes),
            "pass_walls": {"untraced": walls[False], "traced": walls[True]},
            "spans": tracer.spans}


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of workload *name*: its metrics and details."""
    from perf_workloads import WORKLOADS, memo_keys
    workload = WORKLOADS[name]
    reference = workload.reference(ROOT) if seed == 0 else None
    host_before = host_load()
    gauge = HostGauge()
    setup_samples: List[Tuple[float, float]] = []
    with gauge:
        for _ in range(SETUP_REPEATS):
            gc.collect()
            mark = gauge.start()
            inputs = workload.setup(seed)
            setup_samples.append(gauge.stop(mark))
    runner = UnitRunner(workload, inputs, reference, seed)
    memo = memo_keys()
    report = (traced_run if trace else timed_run)(runner, seconds, gauge)
    if memo_keys() != memo:
        runner.errors.append("a trace was generated in the timed phase")
    if not trace:
        report["metrics"]["setup_s"] = statistics.median(
            scaled for _cpu, scaled in setup_samples)
        report["metrics"]["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
    report.update(
        workload=name, seed=seed, seconds=seconds, trace=trace,
        correct=not runner.errors, attempted=runner.attempted,
        failed=runner.failed, errors=runner.errors,
        setup_samples=setup_samples,
        gauge_samples_s=[taken for _started, taken in gauge.samples],
        host=load_delta(host_before, host_load()))
    return report


def print_run(report: dict) -> None:
    units = layer_units() if report["trace"] else E2E_UNITS
    for error in report["errors"]:
        print(f"FAILED {error}")
    for name, unit in units.items():
        print(f"{name:<36} {report['metrics'][name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": report["metrics"][name], "unit": unit}
                    for name, unit in units.items()}}))


# -- a suite of runs ----------------------------------------------------------


def child_run(name: str, seed: int, seconds: float, trace: bool,
              out: Path) -> dict:
    """One run in a fresh interpreter; its report, or why it failed."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(trace)), "--out", str(out)]
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"ok": False, "why": f"took over {RUN_TIMEOUT_S} s"}
    if done.returncode != 0 or not out.exists():
        return {"ok": False, "why": f"exit {done.returncode}: "
                                    f"{done.stderr.strip()[-2000:]}"}
    report = json.loads(out.read_text())
    report["ok"] = report["correct"] and report["failed"] == 0
    return report


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_suite(names: List[str], seed: int, repeats: int, seconds: float,
              out: Path) -> dict:
    """Every workload *repeats* times round robin, then one traced run
    each; the document ``obs compare`` reads."""
    from repro.obs import RunManifest
    manifest = RunManifest.create("perf", seed=seed)
    host_before = host_load()
    runs: Dict[str, List[dict]] = {name: [] for name in names}
    out.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out.parent) as scratch:
        def child(name: str, trace: bool, index: int) -> dict:
            path = Path(scratch) / f"{name}-{index}.json"
            print(f"run {name} {'traced' if trace else index}", flush=True)
            return child_run(name, seed, seconds, trace, path)

        for round_index in range(repeats):
            start = round_index % len(names)
            for name in names[start:] + names[:start]:
                runs[name].append(child(name, False, round_index))
        traced = {name: child(name, True, repeats) for name in names}

    doc = {"manifest": dict(manifest.finish().to_dict(),
                            commit=git_commit(),
                            host=load_delta(host_before, host_load())),
           "e2e": {}, "layers": {}, "wall": {}}
    for name in names:
        good = [run for run in runs[name] if run["ok"]]
        attempted = runs[name] + [traced[name]]
        values = {metric: [run["metrics"][metric] for run in good]
                  for metric in E2E_UNITS}
        doc["e2e"][name] = dict(
            {metric: statistics.median(found) if found else 0.0
             for metric, found in values.items()},
            failed_run_share=sum(not run["ok"] for run in attempted)
            / len(attempted))
        wall = {"runs": [{key: run.get(key) for key in
                          ("ok", "why", "metrics", "errors", "host",
                           "setup_samples", "unit_samples")}
                         for run in attempted],
                "spread": {metric: {"min": min(found), "max": max(found),
                                    "n": len(found)}
                           for metric, found in values.items() if found}}
        if traced[name]["ok"]:
            doc["layers"][name] = {
                key: value for key, value in traced[name]["metrics"].items()
                if key.endswith(".calls") or key.startswith("sim.")}
            wall["trace"] = {key: traced[name][key] for key in
                             ("metrics", "layers", "edges", "pass_walls",
                              "spans")}
        doc["wall"][name] = wall
    return doc


def print_suite(doc: dict) -> None:
    for name, e2e in doc["e2e"].items():
        units = dict(E2E_UNITS, failed_run_share="fraction")
        for metric, value in e2e.items():
            print(f"e2e.{name}.{metric:<28} {value:>16.6g} {units[metric]}")
        trace = doc["wall"][name].get("trace")
        if trace is None:
            print(f"{name}: traced run failed")
            continue
        print(f"{name}: traced pass {trace['metrics']['trace.wall_s']:.3f} s,"
              f" {trace['metrics']['trace.overhead_pct']:+.1f}% over untraced")
        print(f"  {'layer':<30} {'calls':>10} {'self_s':>9} {'incl_s':>9} "
              f"{'self':>7}")
        layers = doc["layers"][name]
        for layer, times in trace["layers"].items():
            calls = layers.get(f"{layer}.calls", "")
            print(f"  {layer:<30} {calls:>10} {times['self_s']:>9.4f} "
                  f"{times['incl_s']:>9.4f} "
                  f"{times['self_share']:>7.1%}")
        for metric, value in layers.items():
            if metric.startswith("sim."):
                print(f"  layers.{name}.{metric:<26} {value:>14.6g}")


# -- command line -------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="one run of this workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="one run: 1 reports per-layer metrics")
    parser.add_argument("--workloads",
                        help="suite: comma-separated workloads (default all)")
    parser.add_argument("--repeats", type=int, default=SUITE_REPEATS,
                        help="suite: untraced runs per workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="measured seconds of one run")
    parser.add_argument("--out", type=Path,
                        help="write the run's (or suite's) JSON document")
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"run.py: no simulator sources at {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    from perf_workloads import WORKLOADS

    if args.workload is not None:
        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
        report = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
        if args.out is not None:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            args.out.write_text(json.dumps(report))
        print_run(report)
        return 0

    names = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown or args.repeats < 1:
        parser.error(f"need --repeats >= 1 and workloads from "
                     f"{', '.join(WORKLOADS)}")
    out = args.out or HERE / "out" / "perf.json"
    doc = run_suite(names, args.seed, args.repeats, args.seconds, out)
    out.write_text(json.dumps(doc, sort_keys=True))
    print_suite(doc)
    print(f"wrote {out}")
    return 0 if all(e2e["failed_run_share"] == 0
                    for e2e in doc["e2e"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
