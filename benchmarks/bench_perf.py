"""The speed record (``BENCH_perf.json``) and the CI perf gate.

``--record RUN [RUN ...] --workload W [--seed S [S ...]] [--commit SHA]``
appends one entry to ``BENCH_perf.json`` at the repository root.  Each
*RUN* file holds the output of one ``benchmarks/perf/run.py --workload
W --seed S --trace 0`` run; its last line is the run's JSON result.
``--seed`` gives each run's seed, in the order of the files, or one
seed for all (default 0).  The entry keeps the result of the run whose
``pass_cpu_s`` is the median (the lower one of an even count) with its
seed, and the seed and ``pass_cpu_s`` of every run.  It carries the
commit measured (the checkout's, with ``-dirty`` for uncommitted
changes, unless ``--commit`` names another, e.g. the parent a change is
compared against), the workload, the interpreter and the platform.
Speed claims are recorded this way, before and after a change, on one
machine.  ``python -m repro.obs validate BENCH_perf.json`` checks the
file against its schema.

``--gate BASE HEAD`` is the CI perf gate instead: *BASE* and *HEAD* hold
the last output line of one ``benchmarks/perf/run.py --workload W
--trace 0`` run on the base commit and on HEAD in the same job, and the
gate fails unless HEAD's run is correct and each gated metric
(``pass_cpu_s`` and ``peak_rss_mb``) is at most the base's times one
plus the bound ``BENCHMARK.json`` sets on it.  CI applies it to each of
the benchmark's four workloads in turn.
"""

import argparse
import json
import subprocess
from pathlib import Path
from typing import Dict, Optional

from repro.obs import RunManifest
from repro.obs.schema import BENCH_PERF_SCHEMA, schema_errors

ROOT = Path(__file__).resolve().parent.parent
RESULTS_PATH = ROOT / "BENCH_perf.json"
BENCHMARK_PATH = ROOT / "BENCHMARK.json"
#: The end-to-end metrics the gate compares; lower is better for each.
GATED = ("pass_cpu_s", "peak_rss_mb")
#: Format of the record document; 1 was the retired hot-loop timings.
FORMAT = 2


def last_json_line(path: Path) -> dict:
    """The result line of a saved ``benchmarks/perf/run.py`` output."""
    lines = [line for line in path.read_text().splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{path} is empty")
    return json.loads(lines[-1])


def head_commit() -> str:
    """The checkout's commit, ``-dirty`` when the working tree has
    uncommitted changes, or ``unknown`` outside a git checkout."""
    try:
        return subprocess.run(
            # No tag is matched, so the name is the full hash.
            ["git", "describe", "--always", "--dirty", "--abbrev=40",
             "--exclude", "*"],
            cwd=ROOT, capture_output=True, text=True,
            check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def record_entry(runs, seeds, workload: str, commit: str) -> dict:
    """One record entry for *runs*, result lines of one workload at one
    commit made with *seeds*: the median run, every run's seed and
    ``pass_cpu_s``, and their provenance."""
    ordered = sorted(
        zip(runs, seeds),
        key=lambda pair: pair[0]["metrics"]["pass_cpu_s"]["value"])
    median, seed = ordered[(len(ordered) - 1) // 2]
    manifest = RunManifest.create("bench_perf")
    return {
        "commit": commit,
        "workload": workload,
        "seed": seed,
        "runs": [{"seed": run_seed,
                  "pass_cpu_s": run["metrics"]["pass_cpu_s"]["value"]}
                 for run, run_seed in zip(runs, seeds)],
        "python": manifest.python,
        "platform": manifest.platform,
        "recorded_at": manifest.started_at,
        "result": median,
    }


def append_entry(entry: dict, path: Path = RESULTS_PATH) -> Path:
    """Append *entry* to the record at *path*, refusing a document or an
    entry that does not match the schema."""
    doc = (json.loads(path.read_text()) if path.exists()
           else {"format": FORMAT, "entries": []})
    doc["entries"].append(entry)
    errors = schema_errors(doc, BENCH_PERF_SCHEMA)
    if errors:
        raise ValueError(f"{path} would not match its schema:\n  "
                         + "\n  ".join(errors))
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def gate_bounds(path: Path = BENCHMARK_PATH) -> Dict[str, float]:
    """Each gated metric's largest allowed relative growth: the bound
    of its ``end_to_end`` entry in the benchmark declaration at *path*."""
    entries = {entry["name"]: entry
               for entry in json.loads(path.read_text())["end_to_end"]}
    for name in GATED:
        if entries[name]["better"] != "lower":
            raise ValueError(f"{path}: the gate needs {name} lower-is-better")
    return {name: entries[name]["bound"] for name in GATED}


def gate(base: dict, head: dict,
         bounds: Optional[Dict[str, float]] = None) -> int:
    """Fail (return 1) unless *head*, a ``benchmarks/perf/run.py`` result
    line, is correct and each metric in *bounds* (by default
    :func:`gate_bounds`) is within its bound of *base*'s, a run of the
    base commit in the same job."""
    if not head["correct"] or head["failed"]:
        print(f"gate: HEAD run is not correct ({head['failed']} of "
              f"{head['attempted']} units failed): FAIL")
        return 1
    failed = 0
    for name, bound in (bounds or gate_bounds()).items():
        base_value = base["metrics"][name]["value"]
        head_value = head["metrics"][name]["value"]
        unit = head["metrics"][name]["unit"]
        ok = head_value <= base_value * (1 + bound)
        failed += not ok
        print(f"gate: {name} {head_value:.3f} {unit} at HEAD vs "
              f"{base_value:.3f} {unit} at base "
              f"({head_value / base_value - 1:+.1%}, allowed {bound:+.0%}): "
              f"{'pass' if ok else 'FAIL'}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Record benchmarks/perf/run.py results in "
                    "BENCH_perf.json, or gate HEAD against a base run.")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--record", nargs="+", type=Path, metavar="RUN",
                      help="saved outputs of run.py runs of one workload")
    mode.add_argument("--gate", nargs=2, type=Path, metavar=("BASE", "HEAD"),
                      help="result lines of a base and a HEAD run")
    parser.add_argument("--workload", help="the workload the runs measured")
    parser.add_argument("--seed", type=int, nargs="+", default=[0],
                        help="each run's seed, or one for all (default 0)")
    parser.add_argument("--commit", help="the commit the runs measured "
                        "(default: this checkout's, -dirty if modified)")
    parser.add_argument("--out", type=Path, default=RESULTS_PATH,
                        help="the record to append to")
    args = parser.parse_args(argv)
    if args.gate:
        base, head = (json.loads(path.read_text()) for path in args.gate)
        return gate(base, head)
    if not args.workload:
        parser.error("--record needs --workload")
    seeds = args.seed * len(args.record) if len(args.seed) == 1 else args.seed
    if len(seeds) != len(args.record):
        parser.error("--seed needs one seed, or one per run")
    entry = record_entry([last_json_line(path) for path in args.record],
                         seeds, args.workload, args.commit or head_commit())
    path = append_entry(entry, args.out)
    print(f"{entry['workload']} @ {entry['commit']}: median of "
          f"{len(entry['runs'])} run(s), pass_cpu_s "
          f"{entry['result']['metrics']['pass_cpu_s']['value']:.3f}s "
          f"(seed {entry['seed']}); appended to {path}")
    return 0


def _run_line(seconds, correct=True, failed=0, rss=60.0):
    return {"correct": correct, "attempted": 10, "failed": failed,
            "metrics": {"pass_cpu_s": {"value": seconds, "unit": "s"},
                        "peak_rss_mb": {"value": rss, "unit": "MiB"}}}


def test_record_appends_the_median_run(tmp_path):
    """--record keeps the median run of several, with its provenance,
    and the document stays valid as it grows."""
    runs = []
    for index, seconds in enumerate((4.0, 3.0, 5.0)):
        run = tmp_path / f"run{index}.txt"
        run.write_text(f"pass_cpu_s {seconds}\n"
                       + json.dumps(_run_line(seconds)) + "\n")
        runs.append(str(run))
    out = tmp_path / "BENCH_perf.json"
    assert main(["--record", *runs, "--workload", "fork-type3",
                 "--seed", "7", "8", "9", "--commit", "abc",
                 "--out", str(out)]) == 0
    assert main(["--record", *runs, "--workload", "fork-type3",
                 "--commit", "def", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["format"] == FORMAT
    assert [entry["commit"] for entry in doc["entries"]] == ["abc", "def"]
    entry = doc["entries"][0]
    assert (entry["workload"], entry["seed"]) == ("fork-type3", 7)
    assert entry["runs"] == [{"seed": 7, "pass_cpu_s": 4.0},
                             {"seed": 8, "pass_cpu_s": 3.0},
                             {"seed": 9, "pass_cpu_s": 5.0}]
    assert entry["result"]["metrics"]["pass_cpu_s"]["value"] == 4.0
    assert doc["entries"][1]["seed"] == 0
    assert schema_errors(doc, BENCH_PERF_SCHEMA) == []


def test_committed_record_is_valid():
    doc = json.loads(RESULTS_PATH.read_text())
    assert schema_errors(doc, BENCH_PERF_SCHEMA) == []


def test_gate():
    """The gate passes within each bound BENCHMARK.json sets and fails
    past either or on an incorrect HEAD run."""
    assert gate_bounds() == {"pass_cpu_s": 0.22, "peak_rss_mb": 0.10}
    assert gate(_run_line(3.0), _run_line(2.0)) == 0
    assert gate(_run_line(3.0), _run_line(3.6)) == 0
    assert gate(_run_line(3.0), _run_line(3.7)) == 1
    assert gate(_run_line(3.0), _run_line(2.0, correct=False)) == 1
    assert gate(_run_line(3.0), _run_line(2.0, failed=1)) == 1
    assert gate(_run_line(3.0, rss=60.0), _run_line(3.0, rss=65.9)) == 0
    assert gate(_run_line(3.0, rss=60.0), _run_line(2.0, rss=66.1)) == 1


if __name__ == "__main__":
    raise SystemExit(main())
