"""Every committed result regenerates from its one producer: in the
gate's one run (``conftest.py``), each experiment's printed section
equals ``results/<name>.txt`` byte for byte, and the ``data`` it wrote
equals the committed ``data`` after a JSON round trip (stricter than
``obs compare --threshold 0``, which passes keys on one side only)."""

import json
from pathlib import Path

import pytest

from repro.__main__ import EXPERIMENTS

pytestmark = pytest.mark.integration

RESULTS = Path(__file__).resolve().parents[2] / "results"


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_printed_text_matches_committed(regenerated, name):
    committed = (RESULTS / f"{name}.txt").read_bytes()
    assert regenerated.sections[name].encode("utf-8") == committed


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_written_data_matches_committed(regenerated, name):
    written = json.loads((regenerated.out_dir / f"{name}.json").read_text())
    committed = json.loads((RESULTS / f"{name}.json").read_text())
    assert written["data"] == committed["data"]
