"""Fault-injection campaigns: classification, determinism, the artifact.

The contract under test (DESIGN.md "Robustness"):

* every outcome class is reachable and correctly classified — masked,
  corrected, detected_recovered, silent_corruption and crash;
* the workload generator is deterministic in its seed;
* the same seed and plan produce a byte-identical ``*.faults.json``
  (what the CI robustness job diffs);
* the campaign document validates against the published schema and the
  CLI drives the whole pipeline.
"""

import json

import pytest

from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.engine.rng import derive_rng
from repro.obs.schema import FAULTS_SCHEMA, SchemaError, validate
from repro.robust import (OUTCOMES, FaultPlan, fault_seed_grid,
                          run_campaign, run_trial, synthesize_workload)
from repro.robust.__main__ import main as robust_cli
from repro.robust.campaign import WORKLOAD_STREAM


def _workload_rng(seed):
    return derive_rng(None, seed, stream=WORKLOAD_STREAM,
                      config=DEFAULT_CONFIG)


class TestWorkload:
    def test_deterministic_in_seed(self):
        first = synthesize_workload(_workload_rng(3), 80, 2)
        second = synthesize_workload(_workload_rng(3), 80, 2)
        assert first == second
        assert first != synthesize_workload(_workload_rng(4), 80, 2)

    def test_mix_covers_every_op_kind(self):
        ops = synthesize_workload(_workload_rng(1), 400, 2)
        kinds = {op[0] for op in ops}
        assert kinds == {"write", "read", "flush", "promote"}

    def test_tiny_span_rejected_up_front(self):
        """pages=0 used to crash inside ``rng.randrange(span - 8)`` with
        an opaque ``ValueError: empty range``; now it is validated."""
        with pytest.raises(ValueError, match="pages >= 1"):
            synthesize_workload(_workload_rng(1), 40, 0)
        with pytest.raises(ValueError, match="pages >= 1"):
            synthesize_workload(_workload_rng(1), 40, -1)

    def test_negative_ops_rejected(self):
        with pytest.raises(ValueError, match="ops must be >= 0"):
            synthesize_workload(_workload_rng(1), -1, 2)
        assert synthesize_workload(_workload_rng(1), 0, 2) == []


class TestFaultSeedGrid:
    def test_matches_the_stride_formula(self):
        grid = fault_seed_grid(100, 2, 3)
        assert grid == [[100 + 104729 * t for t in range(3)],
                        [100 + 7919 + 104729 * t for t in range(3)]]

    def test_collisions_raise_instead_of_silently_narrowing(self):
        """With degenerate strides (rate 2, trial 4), (rate 2, trial 0)
        and (rate 0, trial 1) derive the same seed — the check names
        the colliding pair instead of running duplicate trials."""
        with pytest.raises(ValueError, match="collision"):
            fault_seed_grid(0, 3, 2, rate_stride=2, trial_stride=4)
        # The production strides really are collision-free for the
        # grid sizes campaigns use.
        grid = fault_seed_grid(0, 40, 40)
        flat = [seed for row in grid for seed in row]
        assert len(set(flat)) == len(flat)

    def test_negative_dimensions_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            fault_seed_grid(0, -1, 2)


class TestOutcomeClasses:
    """One seeded trial per outcome class (precedence order)."""

    def test_masked(self):
        trial = run_trial(FaultPlan(), ops=40, pages=2, workload_seed=1)
        assert trial["outcome"] == "masked"
        assert trial["detections"] == 0
        assert trial["faults"]["total_injected"] == 0

    def test_corrected(self):
        trial = run_trial(FaultPlan(dram_error_rate=1.0, seed=1),
                          ops=40, pages=2, workload_seed=1)
        assert trial["outcome"] == "corrected"
        assert trial["detections"] == 0
        assert trial["faults"]["ecc_corrections"] > 0

    def test_detected_recovered(self):
        trial = run_trial(FaultPlan(coherence_drop_rate=0.3, seed=0),
                          ops=60, pages=2, workload_seed=3)
        assert trial["outcome"] == "detected_recovered"
        assert trial["detections"] > 0
        assert trial["repairs"] > 0
        assert trial["recovery_cycles"] > 0
        assert trial["violations"]  # first violations are reported

    def test_silent_corruption(self):
        """ecc="none" lands real bit flips in the backing store: the
        image differs and nothing architectural ever noticed."""
        trial = run_trial(FaultPlan(dram_error_rate=1.0, ecc="none", seed=1),
                          ops=40, pages=2, workload_seed=1)
        assert trial["outcome"] == "silent_corruption"
        assert trial["detections"] == 0
        assert trial["faults"]["silent_bit_errors"] > 0

    def test_crash(self):
        """A corrupted OMS slot pointer dereferences into a crash; the
        tiny OMT cache forces walks past the armed site."""
        trial = run_trial(
            FaultPlan(segment_pointer_rate=1.0, seed=0),
            ops=120, pages=2, workload_seed=2, recover=False,
            check_interval=10 ** 9,
            config=SystemConfig(omt_cache_entries=0))
        assert trial["outcome"] == "crash"
        assert "error" in trial
        assert trial["faults"]["segment_pointer_corruptions"] > 0

    def test_outcome_names_are_published(self):
        assert set(OUTCOMES) == {"masked", "corrected",
                                 "detected_recovered",
                                 "silent_corruption", "crash"}


class TestTrialDeterminism:
    def test_same_seed_same_record(self):
        plan = FaultPlan(coherence_drop_rate=0.3, omt_flip_rate=0.1, seed=5)
        first = run_trial(plan, ops=60, pages=2, workload_seed=2)
        second = run_trial(plan, ops=60, pages=2, workload_seed=2)
        assert first == second

    def test_different_fault_seed_changes_the_run(self):
        records = [run_trial(FaultPlan(coherence_drop_rate=0.3, seed=seed),
                             ops=60, pages=2, workload_seed=2)["faults"]
                   for seed in (1, 2)]
        assert records[0] != records[1]


class TestCampaign:
    def test_artifact_is_byte_identical_across_runs(self, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for directory in dirs:
            run_campaign("smoke", (0.0, 0.05), trials=1, ops=40, pages=2,
                         seed=7, results_dir=directory)
        blobs = [(directory / "smoke.faults.json").read_bytes()
                 for directory in dirs]
        assert blobs[0] == blobs[1]

    def test_document_shape_and_schema(self, tmp_path):
        doc = run_campaign("shape", (0.0, 0.02), trials=2, ops=40,
                           pages=2, seed=3, results_dir=tmp_path)
        validate(doc, FAULTS_SCHEMA)  # already validated; must stay valid
        assert doc["kind"] == "fault_campaign"
        assert [entry["rate"] for entry in doc["sweep"]] == [0.0, 0.02]
        assert sum(doc["outcome_totals"].values()) == 4
        zero_rate = doc["sweep"][0]
        assert zero_rate["outcomes"]["masked"] == 2  # nothing armed
        for trial in zero_rate["trials"]:
            assert trial["faults"]["total_injected"] == 0
        written = json.loads((tmp_path / "shape.faults.json").read_text())
        assert written == doc

    def test_unknown_key_rejected_by_schema(self, tmp_path):
        doc = run_campaign("strict", (0.0,), trials=1, ops=30, pages=2,
                           seed=3, results_dir=tmp_path)
        doc["surprise"] = 1
        with pytest.raises(SchemaError, match="unknown key"):
            validate(doc, FAULTS_SCHEMA)

    def test_manifest_half_is_deterministic(self, tmp_path):
        doc = run_campaign("det", (0.0,), trials=1, ops=30, pages=2,
                           seed=3, results_dir=tmp_path)
        for environment_key in ("python", "platform", "started_at",
                                "duration_seconds"):
            assert environment_key not in doc["manifest"]


class TestCli:
    def test_smoke_campaign(self, tmp_path, capsys):
        code = robust_cli(["--name", "clismoke", "--rates", "0.0,0.02",
                           "--trials", "1", "--ops", "40", "--pages", "2",
                           "--seed", "7",
                           "--results-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "clismoke" in out and "masked" in out
        assert (tmp_path / "clismoke.faults.json").exists()

    def test_bad_arguments(self, capsys):
        assert robust_cli(["--rates", "a,b"]) == 2
        assert robust_cli(["--trials", "x"]) == 2
        assert robust_cli(["--trials", "0"]) == 2
        assert robust_cli(["--ecc", "bogus"]) == 2
        assert robust_cli(["--wat"]) == 2
        capsys.readouterr()

    def test_help(self, capsys):
        assert robust_cli(["--help"]) == 0
        assert "campaign" in capsys.readouterr().out
