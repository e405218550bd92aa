"""The sharded campaign fleet: decomposition, caching, parallel merge.

The contract under test (DESIGN.md "Fleet execution"):

* a shard's content address covers every deterministic input (and not
  its merge position), so equal work shares one cache entry and any
  parameter change misses;
* cache reads are paranoid — corrupt, foreign-format, schema-invalid
  or key-mismatched entries are misses, never wrong payloads;
* worker-count resolution prefers the explicit value, then
  ``$REPRO_FLEET_WORKERS``, then ``os.cpu_count()`` with a safe
  fallback for its documented ``None`` return;
* the fleet merge is byte-identical to the serial path for both
  converted sweeps, a warm cache turns a rerun into zero simulation
  work, and a run killed mid-campaign (or mid-merge) resumes to the
  identical artifact;
* the CLI's process-wide fleet defaults are registered process state.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.engine import process_state
from repro.eval.sparsity_sweep import run_sparsity_sweep, sparsity_shards
from repro.fleet import (FALLBACK_WORKERS, FLEET_FORMAT, MISS, Shard,
                         ShardError, WORKERS_ENV, default_fleet_resume,
                         default_fleet_workers, execute_shard,
                         probe_shard_result, resolve_worker_count,
                         run_fleet, set_default_fleet, shard_cache_path,
                         store_shard_result)
from repro.robust.campaign import run_campaign

REPO_ROOT = Path(__file__).resolve().parent.parent


def _shard(index=0, fraction=0.5, seed=11):
    return sparsity_shards(16, 16, [0.0, fraction], seed)[index]


class TestWorkerResolution:
    def test_explicit_value_wins(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "7")
        assert resolve_worker_count(3) == 3

    def test_explicit_negative_raises(self):
        with pytest.raises(ValueError, match="positive"):
            resolve_worker_count(-2)

    def test_auto_prefers_environment(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "5")
        assert resolve_worker_count(0) == 5
        assert resolve_worker_count(None) == 5

    def test_malformed_environment_raises(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "many")
        with pytest.raises(ValueError, match=WORKERS_ENV):
            resolve_worker_count()
        monkeypatch.setenv(WORKERS_ENV, "0")
        with pytest.raises(ValueError, match="positive"):
            resolve_worker_count()

    def test_cpu_count_none_falls_back(self, monkeypatch):
        """``os.cpu_count()`` may return None; the fleet must not crash."""
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert resolve_worker_count() == FALLBACK_WORKERS

    def test_cpu_count_used_when_available(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert resolve_worker_count(0) == 6


class TestShardKeys:
    def test_key_is_stable_and_hex(self):
        shard = _shard()
        assert shard.key() == _shard().key()
        assert len(shard.key()) == 64
        int(shard.key(), 16)

    def test_index_does_not_participate(self):
        """Merge position is not identity: the same unit at a different
        position in a later sweep must hit the same cache entry."""
        a = _shard(index=1)
        b = Shard(kind=a.kind, index=40, params=a.params,
                  manifest=a.manifest)
        assert a.key() == b.key()

    def test_params_manifest_and_kind_all_matter(self):
        base = _shard(index=1)
        other_params = _shard(index=1, fraction=0.75)
        other_seed = _shard(index=1, seed=12)
        assert base.key() != other_params.key()
        assert base.key() != other_seed.key()

    def test_unknown_kind_and_bad_index_raise(self):
        with pytest.raises(ShardError, match="registered kinds"):
            Shard(kind="nope", index=0, params={}, manifest={})
        with pytest.raises(ShardError, match=">= 0"):
            Shard(kind="sparsity_point", index=-1, params={}, manifest={})

    def test_execute_shard_runs_the_registered_runner(self):
        payload = execute_shard(_shard(index=1))
        assert payload["zero_line_fraction"] == 0.5
        assert payload["dense_cycles"] > 0


class TestCache:
    def test_round_trip_hit(self, tmp_path):
        shard = _shard()
        payload = {"value": 42, "nested": [1, 2]}
        path = store_shard_result(tmp_path, shard, payload)
        assert path == shard_cache_path(tmp_path, shard)
        assert probe_shard_result(tmp_path, shard) == (payload, False)

    def test_absent_and_corrupt_entries_miss(self, tmp_path):
        shard = _shard()
        assert probe_shard_result(tmp_path, shard)[0] is MISS
        shard_cache_path(tmp_path, shard).parent.mkdir(exist_ok=True)
        shard_cache_path(tmp_path, shard).write_text("{ torn")
        assert probe_shard_result(tmp_path, shard)[0] is MISS

    def test_schema_invalid_and_foreign_format_miss(self, tmp_path):
        shard = _shard()
        path = store_shard_result(tmp_path, shard, {"v": 1})
        doc = json.loads(path.read_text())
        doc["extra"] = True
        path.write_text(json.dumps(doc))
        assert probe_shard_result(tmp_path, shard)[0] is MISS
        del doc["extra"]
        doc["fleet_format"] = FLEET_FORMAT + 1
        path.write_text(json.dumps(doc))
        assert probe_shard_result(tmp_path, shard)[0] is MISS

    def test_key_mismatch_misses(self, tmp_path):
        """A tampered or hand-moved entry never supplies a payload."""
        shard = _shard()
        path = store_shard_result(tmp_path, shard, {"v": 1})
        doc = json.loads(path.read_text())
        doc["key"] = "0" * 64
        path.write_text(json.dumps(doc))
        assert probe_shard_result(tmp_path, shard)[0] is MISS

    def test_probe_distinguishes_absent_from_corrupt(self, tmp_path):
        shard = _shard()
        assert probe_shard_result(tmp_path, shard) == (MISS, False)
        shard_cache_path(tmp_path, shard).parent.mkdir(exist_ok=True)
        shard_cache_path(tmp_path, shard).write_text("{ torn")
        payload, corrupt = probe_shard_result(tmp_path, shard)
        assert payload is MISS and corrupt

    def test_run_fleet_recomputes_corrupt_entries(self, tmp_path):
        shards = sparsity_shards(16, 16, [0.0, 0.5], 21)
        golden = run_fleet(shards, workers=1, resume=True,
                           cache_dir=tmp_path)
        path = shard_cache_path(tmp_path, shards[0])
        good = path.read_bytes()
        path.write_text("{ torn")
        rerun = run_fleet(shards, workers=1, resume=True,
                          cache_dir=tmp_path)
        assert rerun.payloads == golden.payloads
        assert rerun.summary.hits == 1 and rerun.summary.misses == 1
        assert rerun.summary.corrupt == 1
        assert path.read_bytes() == good
        assert "corrupt" in rerun.summary.describe()
        assert "corrupt" not in golden.summary.describe()


class TestFleetDefaults:
    def test_defaults_are_registered_process_state(self):
        names = process_state.registered()
        assert "repro.fleet.runner._DEFAULT_FLEET_WORKERS" in names
        assert "repro.fleet.runner._DEFAULT_FLEET_RESUME" in names

    def test_set_and_reset(self):
        try:
            set_default_fleet(4, resume=True)
            assert default_fleet_workers() == 4
            assert default_fleet_resume() is True
        finally:
            process_state.reset_all()
        assert default_fleet_workers() is None
        assert default_fleet_resume() is False

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="0 = auto"):
            set_default_fleet(-1)


CAMPAIGN = dict(rates=(0.0, 0.05), trials=2, ops=40, pages=2, seed=9)


class TestFleetMerge:
    def test_campaign_fleet_matches_serial_byte_for_byte(self, tmp_path):
        serial = run_campaign("serial", results_dir=tmp_path / "s",
                              **CAMPAIGN)
        summary = {}
        fleet = run_campaign("serial", results_dir=tmp_path / "f",
                             fleet_workers=2, fleet_summary=summary,
                             **CAMPAIGN)
        assert fleet == serial
        assert ((tmp_path / "s" / "serial.faults.json").read_bytes()
                == (tmp_path / "f" / "serial.faults.json").read_bytes())
        assert summary == {"shards": 4, "hits": 0, "misses": 4,
                           "workers": 2, "resumed": False, "corrupt": 0}

    def test_single_worker_runs_in_process(self, tmp_path):
        serial = run_campaign("one", results_dir=tmp_path / "s", **CAMPAIGN)
        fleet = run_campaign("one", results_dir=tmp_path / "f",
                             fleet_workers=1, **CAMPAIGN)
        assert fleet == serial

    def test_warm_cache_rerun_does_zero_simulation_work(self, tmp_path):
        first, second = {}, {}
        run_campaign("warm", results_dir=tmp_path, fleet_workers=1,
                     resume=True, fleet_summary=first, **CAMPAIGN)
        doc = run_campaign("warm", results_dir=tmp_path, fleet_workers=1,
                           resume=True, fleet_summary=second, **CAMPAIGN)
        assert first["misses"] == 4 and first["hits"] == 0
        assert second["misses"] == 0 and second["hits"] == 4
        assert doc["outcome_totals"] == {
            outcome: sum(entry["outcomes"][outcome]
                         for entry in doc["sweep"])
            for outcome in doc["outcome_totals"]}

    def test_without_resume_the_cache_is_not_read(self, tmp_path):
        """``--resume`` is explicit opt-in: a warm cache is ignored on
        the read side unless asked for, guarding against staleness."""
        warm, cold = {}, {}
        run_campaign("opt", results_dir=tmp_path, fleet_workers=1,
                     resume=True, fleet_summary=warm, **CAMPAIGN)
        run_campaign("opt", results_dir=tmp_path, fleet_workers=1,
                     resume=False, fleet_summary=cold, **CAMPAIGN)
        assert cold["hits"] == 0 and cold["misses"] == 4

    def test_sparsity_fleet_matches_serial(self, tmp_path):
        serial = run_sparsity_sweep(rows=32, cols=32, seed=3)
        summary = {}
        fleet = run_sparsity_sweep(rows=32, cols=32, seed=3,
                                   fleet_workers=2, resume=True,
                                   cache_dir=tmp_path,
                                   fleet_summary=summary)
        assert fleet == serial
        assert summary["misses"] == summary["shards"] == 6
        rerun = {}
        again = run_sparsity_sweep(rows=32, cols=32, seed=3,
                                   fleet_workers=1, resume=True,
                                   cache_dir=tmp_path, fleet_summary=rerun)
        assert again == serial
        assert rerun == {"shards": 6, "hits": 6, "misses": 0,
                         "workers": 1, "resumed": True, "corrupt": 0}

    def test_run_fleet_merges_in_shard_order(self, tmp_path):
        shards = sparsity_shards(16, 16, [0.0, 0.5, 0.9], 21)
        result = run_fleet(shards, workers=1, resume=True,
                           cache_dir=tmp_path)
        fractions = [p["zero_line_fraction"] for p in result.payloads]
        assert fractions == [0.0, 0.5, 0.9]
        assert result.summary.describe() == (
            "3 shard(s): 0 cached, 3 executed, 1 worker(s)")


_KILL_SCRIPT = """
import sys
from repro.robust.campaign import run_campaign
run_campaign("kill", rates=(0.0, 0.01, 0.05), trials=2, ops=40,
             pages=2, seed=9, results_dir=sys.argv[1],
             fleet_workers=2, resume=True)
"""


class TestResumeAfterKill:
    def _uninterrupted(self, tmp_path):
        return run_campaign("kill", rates=(0.0, 0.01, 0.05), trials=2,
                            ops=40, pages=2, seed=9,
                            results_dir=tmp_path / "golden")

    def test_killed_mid_campaign_resumes_byte_identically(self, tmp_path):
        """SIGKILL a 2-worker fleet once its first shard artifact lands;
        a resumed run reuses the survivors and matches the
        uninterrupted artifact byte for byte.  The campaign runs in its
        own process group, so the kill takes its pool workers too."""
        golden = self._uninterrupted(tmp_path)
        results = tmp_path / "killed"
        cache = results / "fleet" / "kill"
        env = dict(os.environ, PYTHONPATH="src")
        child = subprocess.Popen(
            [sys.executable, "-c", _KILL_SCRIPT, str(results)],
            env=env, cwd=REPO_ROOT, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, start_new_session=True)
        try:
            deadline = time.time() + 60
            while time.time() < deadline:
                if cache.is_dir() and list(cache.glob("*.json")):
                    break
                time.sleep(0.01)
        finally:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
        survivors = len(list(cache.glob("*.json")))
        summary = {}
        resumed = run_campaign("kill", rates=(0.0, 0.01, 0.05), trials=2,
                               ops=40, pages=2, seed=9,
                               results_dir=results, fleet_workers=1,
                               resume=True, fleet_summary=summary)
        assert resumed == golden
        assert ((results / "kill.faults.json").read_bytes()
                == (tmp_path / "golden" / "kill.faults.json").read_bytes())
        # Every artifact the killed run completed was reused, and the
        # resumed run only simulated the remainder.
        assert summary["hits"] >= min(survivors, 6)
        assert summary["hits"] + summary["misses"] == 6

    def test_killed_mid_merge_resumes_with_zero_work(self, tmp_path):
        """A run that dies after every shard artifact landed but before
        (or during) the merge write: resume finds a full cache, does no
        simulation, and produces the identical document."""
        golden = self._uninterrupted(tmp_path)
        results = tmp_path / "merge"
        run_campaign("kill", rates=(0.0, 0.01, 0.05), trials=2, ops=40,
                     pages=2, seed=9, results_dir=results,
                     fleet_workers=1, resume=True)
        (results / "kill.faults.json").unlink()  # the "torn" merge
        summary = {}
        resumed = run_campaign("kill", rates=(0.0, 0.01, 0.05), trials=2,
                               ops=40, pages=2, seed=9,
                               results_dir=results, fleet_workers=1,
                               resume=True, fleet_summary=summary)
        assert summary == {"shards": 6, "hits": 6, "misses": 0,
                           "workers": 1, "resumed": True, "corrupt": 0}
        assert resumed == golden
        assert ((results / "kill.faults.json").read_bytes()
                == (tmp_path / "golden" / "kill.faults.json").read_bytes())
