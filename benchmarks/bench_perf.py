"""Host-performance benchmark of the simulator's tier-1 hot loops.

This is the *simulator-is-slow* gauge, not a simulated-cycle
measurement: each hot loop is timed with the host clock (best and mean
of N repeats) and the datapoints are **appended** to ``BENCH_perf.json``
at the repository root, so the file accumulates a history CI can chart
and ``python -m repro.obs compare`` can gate.

The loops cover the paths the tier-1 suite leans on hardest:

* ``remap_latency`` — the first-write critical path (COW fault, page
  copy vs overlay line move) through two full machines;
* ``fork_core_run`` — a scaled-down trace-driven core run through the
  fork suite machinery (TLB, cache hierarchy, DRAM, OMT walks);
* ``overlay_write_path`` — the framework's raw write path: translate,
  overlay lookup, hierarchy access, no core in front.

All timings are host wall clock by design; simulated time is asserted
untouched (the hot loops are deterministic under the stock seed).

``--gate BASE HEAD`` is the CI perf gate instead: *BASE* and *HEAD* hold
the last output line of one ``benchmarks/perf/run.py --workload W
--trace 0`` run on the base commit and on HEAD in the same job, and the
gate fails unless HEAD's run is correct and its ``pass_cpu_s`` is at
most the base's times ``1 + GATE_BOUND``.  CI applies it to each of the
benchmark's four workloads in turn.
"""

import json
import sys
import time
from pathlib import Path

from repro.eval.fork_experiment import run_benchmark
from repro.eval.remap_latency import measure_remap_latency
from repro.obs import RunManifest

DEFAULT_REPEATS = 3
#: Largest allowed relative growth of ``pass_cpu_s``: the bound
#: BENCHMARK.json sets on it.
GATE_BOUND = 0.22
RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_perf.json"


def _loop_remap_latency():
    result = measure_remap_latency()
    assert result.overlay_on_write_cycles < result.copy_on_write_cycles


def _loop_fork_core_run():
    comparison = run_benchmark("bwaves", scale=0.1)
    assert comparison.cow.cpi > 0


def _loop_overlay_write_path():
    from repro.core.framework import OverlaySystem
    system = OverlaySystem()
    system.register_address_space(1)
    system.map_page(1, vpn=0, ppn=4, writable=True)
    payload = b"\xa5" * 8
    for i in range(512):
        system.write(1, (i * 8) % 4096, payload)
        system.read(1, ((i * 8) + 2048) % 4096, 8)


HOT_LOOPS = [
    ("remap_latency", _loop_remap_latency),
    ("fork_core_run", _loop_fork_core_run),
    ("overlay_write_path", _loop_overlay_write_path),
]


def time_loop(fn, repeats: int = DEFAULT_REPEATS):
    """Per-repeat wall-clock samples of one hot loop (host time)."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()       # simlint: disable=SL001
        fn()
        samples.append(time.perf_counter()  # simlint: disable=SL001
                       - started)
    return samples


def run_perf(repeats: int = DEFAULT_REPEATS, loops=None):
    """One datapoint per hot loop, ready to append."""
    manifest = RunManifest.create("bench_perf")
    entries = []
    for name, fn in (loops or HOT_LOOPS):
        samples = time_loop(fn, repeats)
        entries.append({
            "bench": name,
            "best_seconds": round(min(samples), 6),
            "mean_seconds": round(sum(samples) / len(samples), 6),
            "repeats": len(samples),
            "python": manifest.python,
            "platform": manifest.platform,
            "started_at": manifest.started_at,
        })
    return entries


def gate(base: dict, head: dict, bound: float = GATE_BOUND) -> int:
    """Fail (return 1) unless *head*, a ``benchmarks/perf/run.py`` result
    line, is correct and its ``pass_cpu_s`` is within *bound* of
    *base*'s, a run of the base commit in the same job."""
    if not head["correct"] or head["failed"]:
        print(f"gate: HEAD run is not correct ({head['failed']} of "
              f"{head['attempted']} units failed): FAIL")
        return 1
    base_s = base["metrics"]["pass_cpu_s"]["value"]
    head_s = head["metrics"]["pass_cpu_s"]["value"]
    ok = head_s <= base_s * (1 + bound)
    print(f"gate: pass_cpu_s {head_s:.3f}s at HEAD vs {base_s:.3f}s at base "
          f"({head_s / base_s - 1:+.1%}, allowed {bound:+.0%}): "
          f"{'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def append_results(entries, path: Path = RESULTS_PATH) -> Path:
    """Append *entries* to the running history document at *path*."""
    if path.exists():
        doc = json.loads(path.read_text())
    else:
        doc = {"format": 1, "entries": []}
    doc["entries"].extend(entries)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    repeats = DEFAULT_REPEATS
    out = RESULTS_PATH
    i = 0
    while i < len(args):
        if args[i] == "--repeats" and i + 1 < len(args):
            repeats = int(args[i + 1])
            i += 2
        elif args[i] == "--out" and i + 1 < len(args):
            out = Path(args[i + 1])
            i += 2
        elif args[i] == "--gate" and i + 2 < len(args):
            base, head = (json.loads(Path(arg).read_text())
                          for arg in args[i + 1:i + 3])
            return gate(base, head)
        else:
            print("usage: bench_perf.py [--repeats N] [--out FILE] | "
                  "--gate BASE_JSON HEAD_JSON")
            return 2
    entries = run_perf(repeats)
    width = max(len(entry["bench"]) for entry in entries)
    for entry in entries:
        print(f"{entry['bench']:<{width}}  "
              f"best {entry['best_seconds']:8.3f}s  "
              f"mean {entry['mean_seconds']:8.3f}s  "
              f"x{entry['repeats']}")
    path = append_results(entries, out)
    print(f"[appended {len(entries)} datapoint(s) to {path}]")
    return 0


def test_perf_entries_well_formed(tmp_path):
    """The quick loops produce positive timings and the file appends."""
    quick = [pair for pair in HOT_LOOPS if pair[0] != "fork_core_run"]
    entries = run_perf(repeats=1, loops=quick)
    assert [e["bench"] for e in entries] == [name for name, _ in quick]
    assert all(e["best_seconds"] > 0 for e in entries)
    out = tmp_path / "BENCH_perf.json"
    append_results(entries, out)
    append_results(entries, out)
    doc = json.loads(out.read_text())
    assert doc["format"] == 1
    assert len(doc["entries"]) == 2 * len(quick)


def test_gate():
    """The gate passes within the bound and fails past it or on an
    incorrect HEAD run."""
    def line(seconds, correct=True, failed=0):
        return {"correct": correct, "attempted": 10, "failed": failed,
                "metrics": {"pass_cpu_s": {"value": seconds, "unit": "s"}}}

    assert gate(line(3.0), line(2.0)) == 0
    assert gate(line(3.0), line(3.6)) == 0
    assert gate(line(3.0), line(3.7)) == 1
    assert gate(line(3.0), line(2.0, correct=False)) == 1
    assert gate(line(3.0), line(2.0, failed=1)) == 1


if __name__ == "__main__":
    raise SystemExit(main())
