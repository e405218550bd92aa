"""Every committed result regenerates from its one producer.

Runs ``python -m repro --json --results-dir <tmp> all`` once and checks
each experiment against ``results/``:

* its section of the printed transcript, without the ``[wrote …]`` and
  ``[… done in Ns]`` lines, equals ``results/<name>.txt`` byte for byte;
* the ``data`` it wrote equals the committed ``data`` after a JSON round
  trip (stricter than ``obs compare --threshold 0``, which passes keys
  present on one side only).

The known DRAM-issue drift is a strict xfail until its fix regenerates
the affected files.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import EXPERIMENTS

pytestmark = pytest.mark.integration

REPO_ROOT = Path(__file__).resolve().parents[2]
RESULTS = REPO_ROOT / "results"

#: What ``main`` prints between two experiments.
SEPARATOR = "\n" + "=" * 72 + "\n\n"
_BOOKKEEPING = re.compile(r"^\[(wrote .*|\S+ done in [\d.]+s)\]\n", re.M)

_DRAM_ISSUE_DRIFT = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="the DRAM read is issued l1.miss_latency cycles early, which "
           "moved these results after they were committed "
           "(tests/test_mem_hierarchy.py::TestKnownBugs::"
           "test_dram_read_issues_after_all_three_tag_probes)")

DRIFTS = {"text": {"sparsity_sweep"},
          "data": {"sparsity_sweep", "multiprogrammed"}}


def _cases(kind):
    return [pytest.param(name, marks=_DRAM_ISSUE_DRIFT
                         if name in DRIFTS[kind] else ())
            for name in EXPERIMENTS]


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory):
    """(results directory, {experiment: printed section}) of one run."""
    out_dir = tmp_path_factory.mktemp("results")
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"),
               PYTHONIOENCODING="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "repro", "--json", "--results-dir",
         str(out_dir), "all"],
        cwd=REPO_ROOT, env=env, capture_output=True, encoding="utf-8")
    assert run.returncode == 0, run.stderr
    sections = _BOOKKEEPING.sub("", run.stdout).split(SEPARATOR)
    assert len(sections) == len(EXPERIMENTS)
    return out_dir, dict(zip(EXPERIMENTS, sections))


@pytest.mark.parametrize("name", _cases("text"))
def test_printed_text_matches_committed(regenerated, name):
    _, sections = regenerated
    committed = (RESULTS / f"{name}.txt").read_bytes()
    assert sections[name].encode("utf-8") == committed


@pytest.mark.parametrize("name", _cases("data"))
def test_written_data_matches_committed(regenerated, name):
    out_dir, _ = regenerated
    written = json.loads((out_dir / f"{name}.json").read_text())
    committed = json.loads((RESULTS / f"{name}.json").read_text())
    assert written["data"] == committed["data"]
