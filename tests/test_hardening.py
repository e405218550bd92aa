"""Hardened run execution: the robustness PR's satellite defences.

The contract under test (DESIGN.md "Robustness"):

* ``SystemConfig`` rejects impossible machines at construction;
* the ``max_sim_cycles`` watchdog turns a hung simulation into a
  diagnosable :class:`SimulationHangError`;
* ``write_json`` is crash-safe — a killed writer never leaves a torn
  artifact, a failed serialisation never destroys the previous one;
* schema validation rejects unknown keys and wrong types;
* ``obs compare`` exits 2 on a missing or corrupt baseline.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.config import ConfigError, DEFAULT_CONFIG, SystemConfig
from repro.engine.clock import (SimClock, SimulationHangError,
                                default_max_cycles, set_default_max_cycles)
from repro.obs import RunManifest, SchemaError, validate_manifest
from repro.obs.__main__ import main as obs_cli
from repro.obs.export import write_json
from repro.__main__ import main as repro_cli

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestConfigValidation:
    def test_default_config_is_valid(self):
        assert DEFAULT_CONFIG.ecc_correction_latency > 0
        assert DEFAULT_CONFIG.ecc_retry_latency > 0
        assert DEFAULT_CONFIG.fault_coherence_delay_cycles > 0

    def test_rejects_non_positive_latency(self):
        with pytest.raises(ConfigError, match="positive"):
            SystemConfig(l1_tag_latency=0)
        with pytest.raises(ConfigError, match="ecc_correction_latency"):
            SystemConfig(ecc_correction_latency=-3)

    def test_rejects_non_power_of_two_sizes(self):
        with pytest.raises(ConfigError, match="powers of"):
            SystemConfig(page_bytes=3000)
        with pytest.raises(ConfigError, match="cache_line_bytes"):
            SystemConfig(cache_line_bytes=48)

    def test_rejects_impossible_associativity(self):
        with pytest.raises(ConfigError, match="ways"):
            SystemConfig(l1_ways=0)
        with pytest.raises(ConfigError, match="l1"):
            SystemConfig(l1_ways=7)  # entries % ways != 0

    def test_rejects_bad_frequency_and_buffers(self):
        with pytest.raises(ConfigError, match="frequency"):
            SystemConfig(frequency_ghz=0)
        with pytest.raises(ConfigError, match="write_buffer"):
            SystemConfig(write_buffer_entries=0)
        with pytest.raises(ConfigError, match="omt_cache"):
            SystemConfig(omt_cache_entries=-1)

    def test_error_lists_every_problem(self):
        with pytest.raises(ConfigError) as caught:
            SystemConfig(l1_tag_latency=0, page_bytes=3000)
        message = str(caught.value)
        assert "l1_tag_latency" in message and "page_bytes" in message


class TestWatchdog:
    def test_limit_crossing_raises_with_snapshot(self):
        cursor = SimClock(max_cycles=100).cursor("core0")
        cursor.advance(100)  # at the limit: fine
        with pytest.raises(SimulationHangError) as caught:
            cursor.advance(1)
        error = caught.value
        assert error.limit == 100
        assert error.snapshot["peak"] == 101
        assert "--max-cycles" in str(error)

    def test_cursor_motion_is_watched_too(self):
        clock = SimClock(max_cycles=50)
        cursor = clock.cursor("core0")
        with pytest.raises(SimulationHangError):
            cursor.advance(51)

    def test_seeks_below_the_peak_are_free(self):
        clock = SimClock(max_cycles=100)
        clock.seek(90)
        clock.seek(10)  # event-driven replay is not a runaway
        assert clock.now == 10

    def test_rejects_non_positive_limits(self):
        with pytest.raises(ValueError):
            SimClock(max_cycles=0)
        with pytest.raises(ValueError):
            set_default_max_cycles(-5)

    def test_process_default_is_inherited_at_construction(self):
        assert default_max_cycles() is None
        try:
            set_default_max_cycles(40)
            assert default_max_cycles() == 40
            with pytest.raises(SimulationHangError):
                SimClock().seek(41)
            set_default_max_cycles(None)
            SimClock().seek(41)  # disabled again
        finally:
            set_default_max_cycles(None)

    def test_cli_flag_validation(self, capsys):
        assert repro_cli(["--max-cycles"]) == 2
        assert repro_cli(["--max-cycles", "soon"]) == 2
        assert repro_cli(["--max-cycles", "0"]) == 2
        capsys.readouterr()
        assert default_max_cycles() is None  # bad values never stick

    def test_cli_flag_sets_the_default(self, capsys):
        try:
            assert repro_cli(["--max-cycles", "123456", "list"]) == 0
            assert default_max_cycles() == 123456
        finally:
            set_default_max_cycles(None)
        capsys.readouterr()




class TestCrashSafeWriteJson:
    def test_writes_sorted_json_and_creates_parents(self, tmp_path):
        path = tmp_path / "deep" / "nest" / "doc.json"
        returned = write_json(path, {"b": 2, "a": 1})
        assert returned == path
        assert json.loads(path.read_text()) == {"a": 1, "b": 2}

    def test_failed_serialisation_preserves_the_original(self, tmp_path):
        path = tmp_path / "doc.json"
        write_json(path, {"good": True})
        with pytest.raises(TypeError):
            write_json(path, {"bad": object()})
        assert json.loads(path.read_text()) == {"good": True}
        assert list(tmp_path.iterdir()) == [path]  # no scratch left

    def test_kill_mid_write_never_leaves_a_torn_file(self, tmp_path):
        """A writer SIGKILLed in a tight write loop leaves either no
        file or a complete, parseable document — never a torn one."""
        target = tmp_path / "artifact.json"
        script = (
            "import sys\n"
            "from repro.obs.export import write_json\n"
            "doc = {str(i): 'x' * 256 for i in range(512)}\n"
            "while True:\n"
            "    write_json(sys.argv[1], doc)\n"
        )
        env = dict(os.environ, PYTHONPATH="src")
        child = subprocess.Popen([sys.executable, "-c", script, str(target)],
                                 env=env, cwd=REPO_ROOT,
                                 stdout=subprocess.DEVNULL,
                                 stderr=subprocess.DEVNULL)
        try:
            deadline = time.time() + 10
            while not target.exists() and time.time() < deadline:
                time.sleep(0.01)
            time.sleep(0.2)  # let it race through several rewrites
        finally:
            child.send_signal(signal.SIGKILL)
            child.wait()
        assert target.exists(), "writer never produced the artifact"
        document = json.loads(target.read_text())  # parses => not torn
        assert len(document) == 512


class TestSchemaStrictness:
    def test_unknown_manifest_key_rejected(self):
        doc = RunManifest.create("unit").to_dict()
        doc["experimental_field"] = 1
        with pytest.raises(SchemaError, match="unknown key"):
            validate_manifest(doc)

    def test_wrong_type_rejected(self):
        doc = RunManifest.create("unit").to_dict()
        doc["rng_seed"] = "twelve"
        with pytest.raises(SchemaError):
            validate_manifest(doc)


class TestCompareErrorPaths:
    def test_missing_baseline_exits_2(self, tmp_path, capsys):
        fresh = tmp_path / "fresh.json"
        fresh.write_text('{"metric": 1}\n')
        code = obs_cli(["compare", str(tmp_path / "gone.json"), str(fresh)])
        assert code == 2
        assert "compare failed" in capsys.readouterr().out

    def test_corrupt_baseline_exits_2(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text('{"metric": ')  # torn pre-atomic-write relic
        fresh = tmp_path / "fresh.json"
        fresh.write_text('{"metric": 1}\n')
        code = obs_cli(["compare", str(baseline), str(fresh)])
        assert code == 2
        assert "compare failed" in capsys.readouterr().out
