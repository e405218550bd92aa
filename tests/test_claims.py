"""The paper's claims over the committed results (``repro.eval.claims``):
like a strict xfail, a claim fails when its predicate's outcome differs
from its recorded verdict either way, and EXPERIMENTS.md's claim tables
must be the ones ``python -m repro.eval.claims`` writes."""

import pytest

from repro.eval.claims import CLAIMS, EXPERIMENTS_MD, VERDICTS, load, update


@pytest.mark.parametrize("claim", CLAIMS,
                         ids=[f"{c.result}-{i}" for i, c in enumerate(CLAIMS)])
def test_outcome_matches_recorded_verdict(claim):
    assert claim.verdict in VERDICTS
    data = load(claim.result)
    holds = claim.predicate(*claim.measure(data))
    assert holds == (claim.verdict != "deviates"), (
        f"{claim.claim}: measured {claim.measured(data)}, recorded "
        f"{claim.verdict}")


def test_experiments_md_tables_are_generated():
    text = EXPERIMENTS_MD.read_text(encoding="utf-8")
    assert update(text) == text
