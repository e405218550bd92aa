"""The benchmark end to end: the timed phase generates nothing, wrong
outputs count as failures, and every metric in BENCHMARK.json is
emitted with its unit."""

import copy
import json
import shutil
import signal
import statistics
import subprocess
import sys

import pytest

from perf_trace import SimProbe
from perf_workloads import WORKLOADS, memo_keys
import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_timed_phase_hits_the_trace_memo_only():
    workload = WORKLOADS["fork-type1"]
    inputs = workload.setup(seed=5)
    before = memo_keys()
    assert len(before) == 2 * len(workload.benchmarks)
    runner = run.UnitRunner(workload, inputs, None, seed=5)
    run.timed_run(runner, seconds=0, gauge=run.HostGauge())
    assert runner.failed == 0
    assert memo_keys() == before
    # The check notices a unit that asks for traces set-up did not make.
    workload.run("libq", seed=6)
    assert memo_keys() != before


def test_gauge_samples_while_entered_and_leaves_out_its_own_time():
    gauge = run.HostGauge(interval=0.01)
    previous = signal.getsignal(signal.SIGPROF)
    with gauge:
        mark = gauge.start()
        began = run.cpu_now()
        while run.cpu_now() - began < 0.2:
            pass
        cpu, scaled = gauge.stop(mark)
    assert signal.getsignal(signal.SIGPROF) is previous
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    inside = [taken for _started, taken in gauge.samples[mark:]]
    assert len(inside) > 5              # timer samples between the brackets
    own = sum(inside[1:-1])
    assert 0.2 <= cpu + own < 0.21
    assert scaled == pytest.approx(
        cpu * run.REFERENCE_SAMPLE_S / run.trimmed_mean(inside))


def test_trimmed_mean_drops_outliers_at_both_ends():
    assert run.trimmed_mean([1.0, 3.0]) == 2.0
    values = [1.0] * 18 + [0.0, 50.0]
    assert run.trimmed_mean(values) == 1.0
    assert statistics.fmean(values) > 3.0


def test_perturbed_figure9_entry_fails_the_unit():
    workload = WORKLOADS["fork-type1"]
    reference = copy.deepcopy(workload.reference(run.ROOT))
    reference["libq"]["oow"]["cycles"] += 1
    runner = run.UnitRunner(workload, workload.setup(seed=0), reference,
                            seed=0)
    gauge = run.HostGauge()
    assert runner.run("hmmer", SimProbe(), gauge) is not None
    assert runner.run("libq", SimProbe(), gauge) is None
    assert (runner.attempted, runner.failed) == (2, 1)
    assert "figure9.json" in runner.errors[0]


def test_perturbed_figure10_row_fails_the_unit():
    workload = WORKLOADS["spmv-fig10"]
    matrices = workload.setup(seed=0)
    reference = workload.reference(run.ROOT)
    last = matrices[-1].name
    reference[last] = reference[last].replace("0.71", "0.72")
    runner = run.UnitRunner(workload, matrices[-1:], reference, seed=0)
    assert runner.run(last, SimProbe(), run.HostGauge()) is None
    assert "figure10.txt" in runner.errors[0]


def test_metric_units_match_benchmark_json():
    assert run.E2E_UNITS == {metric["name"]: metric["unit"]
                             for metric in BENCHMARK["end_to_end"]}
    assert run.layer_units() == {metric["name"]: metric["unit"]
                                 for metric in BENCHMARK["per_layer"]}
    assert list(WORKLOADS) == [w["name"] for w in BENCHMARK["workloads"]]
    assert run.RUN_SECONDS == BENCHMARK["run_seconds"]


def test_suite_emits_every_metric(tmp_path):
    out = tmp_path / "perf.json"
    done = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workloads",
         "fork-type1", "--repeats", "1", "--seconds", "0", "--out",
         str(out)], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    doc = json.loads(out.read_text())
    assert set(doc) == {"manifest", "e2e", "layers", "wall"}
    e2e = doc["e2e"]["fork-type1"]
    assert e2e["failed_run_share"] == 0
    assert {m["name"] for m in BENCHMARK["end_to_end"]} <= set(e2e)
    traced = doc["wall"]["fork-type1"]["trace"]["metrics"]
    assert {m["name"] for m in BENCHMARK["per_layer"]} <= set(traced)
    assert all(name.endswith(".calls") or name.startswith("sim.")
               for name in doc["layers"]["fork-type1"])
    for name in run.E2E_UNITS:
        assert f"e2e.fork-type1.{name}" in done.stdout


def test_one_run_prints_the_result_line_last():
    done = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload",
         "fork-type1", "--seed", "2", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(WORKLOADS["fork-type1"].benchmarks)
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} == run.E2E_UNITS
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = subprocess.run(
        BENCHMARK["command"] + ["--workload", "fork-type1", "--seed", "0",
                                "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
